"""cointwatch benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark generates its inputs from the
seed, imports the program from ./src, measures a closed loop of operations
for --seconds, checks every output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
reports its per-layer metrics instead: it runs half the time untraced and
half with spans around the program's public functions, reports the
difference as tracing overhead, and writes the spans to
.bench_work/trace-<workload>-<seed>.jsonl. The line before the result holds
details: provenance, workload shape, sample counts, failures and every
layer figure, including those not listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from checks import check_repeat
from workloads import SCALES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PROBE_PAIRS = 60

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "op_ms_late": "ms",
             "ops_per_s": "1/s", "graph_out_mb": "MB", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_pct": "%", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def import_program():
    """Import cointwatch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cointwatch" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {src / 'cointwatch'}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("cointwatch")
    for module in ("alert", "cli", "coint", "graph", "pipeline", "stats", "synth"):
        importlib.import_module(f"cointwatch.{module}")
    return package


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, tracer, seconds: float, setup_times: list) -> list:
    """Set up afresh and replay one episode, until `seconds` have passed and
    the workload's minimum episode count is met. Set-ups are timed apart
    from the operations and spread over the run, so their median samples
    the same machine conditions as the operations do. Every episode must
    repeat the first one's output byte for byte."""
    deadline = time.perf_counter() + seconds
    episodes = []
    while len(episodes) < workload.min_episodes or time.perf_counter() < deadline:
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        episode = workload.episode(tracer)
        tracer.counting = False
        if episodes and episode.digest:
            episode.fail(check_repeat("episode output", episode.digest, episodes[0].digest))
        episodes.append(episode)
    return episodes


def end_to_end(episodes, setup_times) -> tuple[dict, dict, dict]:
    latencies = [x for ep in episodes for x in ep.latencies] or [math.nan]
    quarter = [max(1, len(ep.latencies) // 4) for ep in episodes]
    late = [x for ep, k in zip(episodes, quarter) for x in ep.latencies[-k:]] or [math.nan]
    early = [x for ep, k in zip(episodes, quarter) for x in ep.latencies[:k]] or [math.nan]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
           if len(latencies) > 1 else latencies[0])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "op_ms_late": statistics.median(late) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "graph_out_mb": episodes[0].graph_bytes / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"ops": len(latencies), "episodes": len(episodes), "late_ops": len(late),
               "setups": len(setup_times)}
    info = {"op_drift_ratio": statistics.median(late) / statistics.median(early)}
    return metrics, samples, info


def probe_stats(cw, series, seed: int) -> dict:
    """Single-process timings of one pair fit and its two halves over a
    fixed sample of the workload's pairs, in microseconds per call."""
    coint_fit = getattr(cw.coint, "coint_fit", None)
    ols_fit = getattr(cw.stats, "ols_fit", None)
    adf_test = getattr(cw.stats, "adf_test", None)
    times = {"stats.coint_fit_us": [], "stats.ols_fit_us": [], "stats.adf_test_us": []}
    rng = np.random.default_rng(seed)
    for _ in range(PROBE_PAIRS):
        i, j = rng.choice(len(series), size=2, replace=False)
        x, y = series[i], series[j]
        try:
            if coint_fit is not None:
                start = time.perf_counter()
                coint_fit(x, y)
                times["stats.coint_fit_us"].append(time.perf_counter() - start)
            if ols_fit is not None and adf_test is not None:
                start = time.perf_counter()
                model = ols_fit(x.series, y.series)
                middle = time.perf_counter()
                adf_test(model.residuals)
                times["stats.ols_fit_us"].append(middle - start)
                times["stats.adf_test_us"].append(time.perf_counter() - middle)
        except cw.CointwatchError:
            continue
    return {k: statistics.median(v) * 1e6 if v else 0.0 for k, v in times.items()}


# per-operation (tick) medians: metric -> (span name, summary field)
PER_OP = {
    "graph.update_prices_ms": ("graph.update_prices", "op_ms"),
    "engine.run_supersteps_ms": ("engine.run_supersteps", "op_ms"),
    "alert.price_broadcast_ms": ("alert.price_broadcast", "self_op_ms"),
    "alert.assemble_report_ms": ("alert.assemble_report", "op_ms"),
    "alert.report_to_json_ms": ("alert.report_to_json", "op_ms"),
    "graph.publish_ms": ("graph.publish", "op_ms"),
    "alert.selective_recompute_ms": ("alert.selective_recompute", "op_ms"),
    "graph.remove_edges_ms": ("graph.remove_edges", "op_ms"),
    "op.self_ms": (tracing.OP, "self_op_ms"),
    "op.traced_ms": (tracing.OP, "op_ms"),
}
# counts every workload reports, zero where its loop never does that work
COUNTS = ("coint.fits", "coint.skipped", "coint.admitted", "alert.edges_checked",
          "alert.edges_skipped_stale", "alert.broken_edges", "alert.refits", "alert.removed",
          "graph.edges_end", "graph.history_entries", "pipeline.graph_bytes")
PER_CALL = ("pipeline.load_prices", "pipeline.slice_window", "pipeline.load_ticks",
            "pipeline.save_graph", "pipeline.load_graph", "graph.build_graph",
            "coint.scan_pairs")


def layer_metrics(summary, counts, probe, overhead_pct, n_spans) -> dict:
    layers = dict(probe)
    for name in PER_CALL:
        layers[f"{name}_s"] = summary[name]["call_s"]
    for metric, (name, key) in PER_OP.items():
        layers[metric] = summary[name][key]
    for name, row in summary.items():
        if name not in tracing.GROUPS:
            layers["op.self_pct" if name == tracing.OP else f"{name}_pct"] = row["self_pct"]
    layers["coint.refit_fit_us"] = summary["coint.coint_fit"]["call_s"] * 1e6
    fits, calls = counts.get("coint.fits", 0), counts.pop("coint.scan_calls", 0)
    layers["coint.scan_us_per_fit"] = (
        summary["coint.scan_pairs"]["call_s"] * 1e6 * calls / fits if fits else 0.0)
    layers["coint.admit_ratio"] = counts.get("coint.admitted", 0) / fits if fits else 0.0
    tried = counts.get("alert.refits", 0) + counts.get("alert.removed", 0)
    layers["alert.refit_keep_ratio"] = counts.get("alert.refits", 0) / tried if tried else 0.0
    for key in COUNTS:
        counts.setdefault(key, 0)
    layers.update(counts)
    layers["trace.overhead_pct"] = overhead_pct
    layers["trace.spans"] = n_spans
    return layers


def run(cw, args, workdir: Path) -> tuple[dict, dict, int, int]:
    workload = WORKLOADS[args.workload](cw, SCALES[args.scale][args.workload], args.seed, workdir)
    setup_times: list[float] = []
    start = time.perf_counter()
    workload.setup()
    setup_times.append(time.perf_counter() - start)
    workload.prepare_checks()

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "seconds": args.seconds}
    if not args.trace:
        episodes = measure(workload, tracing.NullTracer(), args.seconds, setup_times)
        metrics, detail["samples"], detail["info"] = end_to_end(episodes, setup_times)
    else:
        plain = measure(workload, tracing.NullTracer(), args.seconds / 2, setup_times)
        tracer = tracing.Tracer()
        tracer.install(cw)
        try:
            traced = measure(workload, tracer, args.seconds / 2, [])
        finally:
            tracer.uninstall()
        episodes = plain + traced
        plain_p50 = statistics.median(x for ep in plain for x in ep.latencies)
        traced_p50 = statistics.median(x for ep in traced for x in ep.latencies)
        summary = tracing.summarize(tracer)
        counts = dict(tracer.counts)
        counts.update(traced[0].counts)
        metrics = layer_metrics(summary, counts, probe_stats(cw, workload.probe_series(), args.seed),
                                100.0 * (traced_p50 / plain_p50 - 1.0), len(tracer.spans))
        detail["absent"] = tracer.absent
        detail["span_calls"] = {name: row["calls"] for name, row in sorted(summary.items())}
        detail["not_called"] = sorted(name for name, row in summary.items()
                                      if row["calls"] == 0 and name not in tracer.absent
                                      and name not in tracing.GROUPS)
        detail["samples"] = {"untraced_ops": sum(len(ep.latencies) for ep in plain),
                             "traced_ops": sum(len(ep.latencies) for ep in traced)}
        trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))

    attempted = sum(ep.attempted for ep in episodes)
    failed = min(attempted, sum(ep.failed for ep in episodes))
    detail["ops_failed_frac"] = failed / attempted if attempted else 1.0
    detail["failures"] = [msg for ep in episodes for msg in ep.failures][:5]
    detail["shape"] = workload.shape
    detail["provenance"] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": git_sha(), "seed": args.seed,
    }
    return metrics, detail, max(attempted, 1), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cw = import_program()

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, detail, attempted, failed = run(cw, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in sorted(metrics):
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {name} = {shown} {unit_of(name)}")
    print(json.dumps({"detail": detail, "all_metrics": metrics}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
