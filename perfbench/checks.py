"""Output checks. Each returns a list of failure messages (empty when the
output is correct), so the benchmark can count failures instead of
stopping at the first one."""

from __future__ import annotations


def check_report(report: dict, edges_hit, expect_quiet: bool) -> list[str]:
    """Check one tick's parsed JSON report against the graph version it hit.

    edges_hit is the edge-id collection of that version. Every edge is
    scheduled once per endpoint, so checked + skipped must equal 2*E;
    broken edges must exist and appear once each, in id order. A quiet
    tick (every edge in band by construction) reports nothing broken.
    """
    failures = []
    total = report["edges_checked"] + report["edges_skipped_stale"]
    if total != 2 * len(edges_hit):
        failures.append(
            f"epoch {report['epoch']}: checked + skipped = {total}, expected 2*E = {2 * len(edges_hit)}"
        )
    broken_ids = [eid for eid, _ in report["broken_edges"]]
    if broken_ids != sorted(set(broken_ids)):
        failures.append(f"epoch {report['epoch']}: broken edge ids repeat or are out of order")
    unknown = [eid for eid in broken_ids if eid not in edges_hit]
    if unknown:
        failures.append(f"epoch {report['epoch']}: broken edges {unknown[:5]} are not in the graph")
    if expect_quiet and (broken_ids or report["node_alerts"] or report["global_alert"]):
        failures.append(
            f"epoch {report['epoch']}: in-band tick reported {len(broken_ids)} broken edges"
        )
    return failures


def check_edges(built, reference) -> list[str]:
    """The built graph's (src, dst) edges must equal the reference scan's
    admitted pairs: output must not depend on the worker count."""
    missing = sorted(set(reference) - set(built))
    extra = sorted(set(built) - set(reference))
    if missing or extra:
        return [f"{len(missing)} admitted pairs missing and {len(extra)} extra edges "
                f"against the single-worker reference scan"]
    return []


def check_repeat(label: str, digest: str, first_digest: str) -> list[str]:
    """A repeat of the same inputs must produce byte-identical output."""
    if digest != first_digest:
        return [f"{label}: output sha256 {digest[:12]} differs from first run {first_digest[:12]}"]
    return []
