"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads build monitor-calm --seeds 1-10 \
        --out perfbench/trajectory/<name>.json

Runs `perfbench/run.py` once per (workload, seed), one at a time, from the
repository root, and writes every run's result plus, per workload and
metric, the median, quartiles and spread (interquartile range over the
median, as statistics.quantiles(values, n=4) gives the quartiles). Spreads
are printed beside the bound BENCHMARK.json sets for the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    extra = json.loads(lines[-2])
    return {"seed": seed, "wall_s": wall, "detail": extra["detail"],
            "all_metrics": extra["all_metrics"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={run['wall_s']:.1f}s",
                  flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name)
            print(f"  {name:28s} median {metrics[name]['median']:.6g} {metrics[name]['unit']:6s}"
                  f" spread {metrics[name]['spread']:.3f}"
                  + (f" (bound {bound}, third {bound / 3:.3f})" if bound else ""), flush=True)
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
