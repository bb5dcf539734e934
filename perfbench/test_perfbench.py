"""Tests of the benchmark itself: a tiny smoke run of every workload, the
output checkers against tampered reports, and tracing that survives a
changed API."""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    return out.getvalue().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] == run.unit_of(m["name"])
        assert isinstance(got["value"], (int, float))
        # the human-readable lines name every metric with the same unit
        assert f"{workload} {m['name']} = " in "\n".join(lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    detail = json.loads(lines[-2])["detail"]
    assert detail["ops_failed_frac"] == 0.0
    assert {"nproc", "python", "numpy", "git_sha", "seed"} <= set(detail["provenance"])
    assert detail["shape"]["symbols"] > 0


@pytest.fixture
def calm_report():
    """A real in-band tick report and the edge ids of the graph it hit."""
    from cointwatch import alert, synth

    u = synth.planted_universe(n_clusters=2, cluster_size=4, n_independent=0, seed=5)
    series = synth.universe_series(u.table).series
    g = synth.planted_graph(series, u.clusters)
    base = synth.baseline_tick(g, {s.symbol: float(s.values[-1]) for s in series})
    stream = alert.tick_loop(g, iter([synth.jittered_tick(g, base, seed=1)]),
                             alert.AlertConfig())
    hit = stream.graph.edges
    return json.loads(next(stream).to_json()), hit


def test_checker_accepts_a_real_report(calm_report):
    report, hit = calm_report
    assert report["edges_checked"] == 2 * len(hit)
    assert checks.check_report(report, hit, expect_quiet=True) == []


def test_checker_flags_a_broken_checked_plus_skipped_sum(calm_report):
    report, hit = calm_report
    report["edges_skipped_stale"] += 1
    assert any("2*E" in f for f in checks.check_report(report, hit, expect_quiet=False))


def test_checker_flags_a_wrong_broken_edges_list(calm_report):
    report, hit = calm_report
    first = min(hit)
    report["broken_edges"] = [[first, 4.0]]
    assert any("in-band" in f for f in checks.check_report(report, hit, expect_quiet=True))
    report["broken_edges"] = [[max(hit) + 1, 4.0]]
    assert any("not in the graph" in f
               for f in checks.check_report(report, hit, expect_quiet=False))
    report["broken_edges"] = [[first, 4.0], [first, 4.0]]
    assert any("repeat" in f for f in checks.check_report(report, hit, expect_quiet=False))


def test_build_checks_flag_wrong_edges_and_changed_bytes():
    reference = {("A", "B"), ("B", "A")}
    assert checks.check_edges({("A", "B"), ("B", "A")}, reference) == []
    assert checks.check_edges({("A", "B")}, reference)
    assert checks.check_edges(reference | {("A", "C")}, reference)
    assert checks.check_repeat("x", "ab", "ab") == []
    assert checks.check_repeat("x", "ab", "cd")


def test_tracing_tolerates_missing_and_uncalled_targets():
    def update_prices(g, tick):
        return g + 1

    package = types.SimpleNamespace(
        graph=types.SimpleNamespace(update_prices=update_prices),
        alert=types.SimpleNamespace(),  # every alert target is gone
    )
    tracer = tracing.Tracer()
    tracer.install(package)
    assert "engine.run_supersteps" in tracer.absent
    assert "graph.with_nodes" in tracer.absent
    with tracer.op():
        assert package.graph.update_prices(1, {}) == 2
    tracer.uninstall()
    assert package.graph.update_prices is update_prices

    summary = tracing.summarize(tracer)
    assert summary["graph.update_prices"]["calls"] == 1
    assert summary["graph.update_prices"]["op_ms"] > 0
    assert summary["engine.run_supersteps"]["calls"] == 0
    assert summary["engine.run_supersteps"]["op_ms"] == 0.0
    layers = run.layer_metrics(summary, {}, {}, 0.0, len(tracer.spans))
    assert layers["engine.run_supersteps_ms"] == 0.0
    assert layers["alert.refits"] == 0
