"""In-memory spans around the program's public functions.

The benchmark measures each layer from outside: it swaps selected module
attributes for thin wrappers that record a span per call (name, start,
end, parent span, operation id) and restores them afterwards. Spans stay
in memory and are written out once, at the end of the run.

A target that no longer exists is listed as absent and a target that is
never called reads as zero, so a later refactor that moves or retires a
function still gets measured by the same benchmark code.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable

OP = "op"  # the span the benchmark itself opens around one operation

# (owner, attribute, span name). The owner is a dotted path below the
# cointwatch package; the program looks these attributes up at call time,
# so replacing them reaches every call.
TARGETS = (
    ("pipeline", "load_prices", "pipeline.load_prices"),
    ("pipeline", "slice_window", "pipeline.slice_window"),
    ("pipeline", "load_ticks", "pipeline.load_ticks"),
    ("pipeline", "save_graph", "pipeline.save_graph"),
    ("pipeline", "load_graph", "pipeline.load_graph"),
    ("coint", "scan_pairs", "coint.scan_pairs"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "update_prices", "graph.update_prices"),
    ("graph", "with_nodes", "graph.with_nodes"),
    ("graph", "mark_broken", "graph.mark_broken"),
    ("graph", "replace_model", "graph.replace_model"),
    ("graph", "remove_edges", "graph.remove_edges"),
    ("alert", "run_supersteps", "engine.run_supersteps"),
    ("alert", "price_broadcast_messages", "alert.price_broadcast"),
    ("alert", "assemble_report", "alert.assemble_report"),
    ("alert", "selective_recompute", "alert.selective_recompute"),
    ("alert", "coint_fit", "coint.coint_fit"),
    ("alert.AlertReport", "to_json", "alert.report_to_json"),
)


def _scan_counts(result) -> dict:
    pairs = getattr(result, "pairs", ())
    skipped = getattr(result, "skipped", ())
    admitted = sum(1 for p in pairs if getattr(p, "admitted", False))
    return {"coint.scan_calls": 1, "coint.fits": len(pairs) + len(skipped),
            "coint.skipped": len(skipped), "coint.admitted": admitted}


# per-operation sums reported under one name
GROUPS = {"graph.publish": ("graph.with_nodes", "graph.mark_broken")}

# span name -> counts derived from the call's return value
RESULT_COUNTS: dict[str, Callable[[object], dict]] = {"coint.scan_pairs": _scan_counts}


class Tracer:
    """Collects spans while installed; `op` opens the span the benchmark
    puts around each operation. Counts are gathered only while `counting` is set,
    so they cover a fixed amount of work and repeat exactly."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.counting = True
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1  # -1: outside any operation (set-up, checks)
        self._n_ops = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._op_id))
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op_id)

    def wrap(self, fn, name: str):
        counts = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counts is not None and self.counting:
                for key, value in counts(result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op(self):
        """Span around one operation (a CLI call or a tick)."""
        self._op_id = self._n_ops
        self._n_ops += 1
        index = self._enter(OP)
        try:
            yield
        finally:
            self._exit(index)
            self._op_id = -1

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        for owner_path, attr, name in TARGETS:
            owner = _resolve(package, owner_path)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class NullTracer:
    """Stands in for Tracer in the untraced run."""

    counting = False

    def op(self):
        return contextlib.nullcontext()


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, per-call and per-operation durations, self
    times, and each name's share of total operation time."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, list[float]] = defaultdict(list)
    per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    self_per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, op_id) in enumerate(tracer.spans):
        duration = end - start
        calls[name].append(duration)
        if op_id >= 0:
            per_op[name][op_id] += duration
            self_per_op[name][op_id] += duration - child_time[index]

    for group, members in GROUPS.items():
        for member in members:
            for op_id, duration in per_op.get(member, {}).items():
                per_op[group][op_id] += duration

    op_total = sum(per_op[OP].values())
    out = {}
    for name in set(calls) | {target[2] for target in TARGETS} | set(GROUPS) | {OP}:
        durations = calls.get(name, [])
        op_values = list(per_op[name].values()) if name in per_op else []
        self_values = list(self_per_op[name].values()) if name in self_per_op else []
        out[name] = {
            "calls": len(durations),
            "call_s": statistics.median(durations) if durations else 0.0,
            "total_s": sum(durations),
            "op_ms": statistics.median(op_values) * 1e3 if op_values else 0.0,
            "self_op_ms": statistics.median(self_values) * 1e3 if self_values else 0.0,
            "self_pct": 100.0 * sum(self_values) / op_total if op_total else 0.0,
        }
    return out
