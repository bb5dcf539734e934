"""The benchmark's three workloads, each a closed loop from one process:
the next operation starts only after the previous one's output is out.

build          `cointwatch build` through the CLI entry point, cycling over
               sector price files. The coint/stats scan is nearly all of the
               time and the monitor layers are idle, so a scan change shows
               here and nowhere else.
monitor-calm   in-band ticks replayed over a dense planted graph with the
               refit path off. No fits at all: the time goes to the price
               update, the broadcast and leash checks, report assembly and
               the per-tick graph publish, while alert history grows with
               run length.
monitor-refit  real next-day prices replayed with refits on break over a
               graph scanned from the preceding window. Edges break and are
               refit or removed, so the write path runs beside the read path.

The scanned universes are split into independent sectors (one planted
5-symbol cluster plus random walkers each, scanned within the sector). How
many random-walk pairs pass the admission test varies a lot from one
universe to the next; summing over many small sectors keeps the graph
size, and so the timings, nearly the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

import checks

SCALES = {
    "full": {
        "build": {"sectors": 8, "sector_size": 50, "days": 250, "workers": 2},
        "monitor-calm": {"clusters": 16, "cluster_size": 16, "days": 250, "ticks": 300,
                         "jitter_pool": 64, "stale": 0.10},
        "monitor-refit": {"sectors": 16, "sector_size": 25, "days": 250, "ticks": 300,
                          "stale": 0.05, "workers": 2},
    },
    # a few seconds end to end; used by the benchmark's own tests
    "tiny": {
        "build": {"sectors": 2, "sector_size": 10, "days": 250, "workers": 2},
        "monitor-calm": {"clusters": 2, "cluster_size": 4, "days": 250, "ticks": 12,
                         "jitter_pool": 4, "stale": 0.10},
        "monitor-refit": {"sectors": 2, "sector_size": 10, "days": 250, "ticks": 12,
                          "stale": 0.05, "workers": 2},
    },
}


@dataclass
class Episode:
    """One fixed unit of replayed work and what it produced."""

    latencies: list[float] = field(default_factory=list)  # seconds per operation
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    graph_bytes: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, messages: list[str]) -> None:
        """Count one failed operation per non-empty list of check failures."""
        if messages:
            self.failed += 1
            self.failures.extend(messages)


def _sectors(cw, seed: int, sectors: int, size: int, days: int):
    """Independent C8-shaped sectors, keyed by their symbol prefix."""
    return [
        (f"S{k:02d}_", cw.synth.planted_universe(
            n_clusters=1, cluster_size=5, n_independent=size - 5, n_days=days,
            seed=seed * 100 + k))
        for k in range(sectors)
    ]


def _columns(sectors, rows: slice, keep=None) -> dict:
    """Prefixed symbol -> closes over `rows`; NaN where `keep` is False."""
    columns = {}
    for k, (prefix, u) in enumerate(sectors):
        prices = u.table.prices[rows]
        if keep is not None:
            prices = np.where(keep[k], prices, np.nan)
        for j, symbol in enumerate(u.table.symbols):
            columns[prefix + symbol] = prices[:, j]
    return columns


def _planted_pairs(prefix, universe):
    return [(prefix + a, prefix + b)
            for cluster in universe.clusters for a, b in permutations(cluster, 2)]


def _quiet(fn, *args):
    """Call fn with its stdout/stderr chatter captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args)


class Build:
    name = "build"
    min_episodes = 1

    def __init__(self, cw, params, seed, workdir):
        self.cw, self.p, self.seed, self.workdir = cw, params, seed, workdir
        self.shape = {"sectors": params["sectors"],
                      "symbols": params["sectors"] * params["sector_size"],
                      "days": params["days"], "workers": params["workers"]}

    def setup(self):
        p = self.p
        self.jobs = []
        for prefix, u in _sectors(self.cw, self.seed, p["sectors"], p["sector_size"], p["days"]):
            csv_path = self.workdir / f"{prefix}prices.csv"
            self.cw.pipeline.write_prices_csv(csv_path, u.table.calendar,
                                              _columns([(prefix, u)], slice(None)))
            self.jobs.append((csv_path, self.workdir / f"{prefix}graph.json",
                              _planted_pairs(prefix, u)))

    def prepare_checks(self):
        """Admitted pairs of a single-worker scan of each sector file, the
        reference every multi-worker build must reproduce exactly."""
        cw = self.cw
        self.reference = []
        for csv_path, _, _ in self.jobs:
            table = cw.pipeline.load_prices(csv_path)
            series = cw.pipeline.slice_window(table, table.calendar[0], table.calendar[-1]).series
            scan = cw.coint.scan_pairs(series, workers=1)
            self.reference.append({(r.src_symbol, r.dst_symbol) for r in scan.admitted})
        self.probe = series

    def probe_series(self):
        """A sector's aligned series, for the single-pair stats probe."""
        return self.probe

    def episode(self, tracer) -> Episode:
        """One `cointwatch build` per sector. Each graph must hold exactly
        the reference scan's admitted pairs; the digest covers every graph
        so later cycles must repeat the first byte for byte."""
        ep = Episode()
        sha = hashlib.sha256()
        edges = planted_hits = 0
        for k, (csv_path, graph_path, planted) in enumerate(self.jobs):
            argv = ["build", "--prices", str(csv_path),
                    "--workers", str(self.p["workers"]), "--out", str(graph_path)]
            ep.attempted += 1
            try:
                with tracer.op():
                    start = time.perf_counter()
                    code = _quiet(self.cw.cli.main, argv)
                    ep.latencies.append(time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - count it, keep measuring
                ep.fail([f"sector {k}: build raised {type(exc).__name__}: {exc}"])
                continue
            if code != 0:
                ep.fail([f"sector {k}: cointwatch build exited {code}"])
                continue
            data = graph_path.read_bytes()
            sha.update(data)
            ep.graph_bytes += len(data)
            g = self.cw.pipeline.load_graph(graph_path)
            built = {(g.nodes[e.src].symbol, g.nodes[e.dst].symbol) for e in g.edges.values()}
            ep.fail(checks.check_edges(built, self.reference[k]))
            edges += len(built)
            planted_hits += len(built.intersection(planted))
        ep.digest = sha.hexdigest()
        ep.counts = {"pipeline.graph_bytes": ep.graph_bytes, "graph.edges_end": edges,
                     "coint.planted_admitted": planted_hits,
                     "coint.planted_pairs": sum(len(job[2]) for job in self.jobs)}
        self.shape.update(edges_start=edges, edges_end=edges)
        return ep


class _Monitor:
    """Shared tick replay: one episode replays every tick from the loaded
    graph and checks each report against the graph version it hit."""

    recompute = "off"
    expect_quiet = False
    min_episodes = 1

    def __init__(self, cw, params, seed, workdir):
        self.cw, self.p, self.seed, self.workdir = cw, params, seed, workdir
        self.history = None

    def prepare_checks(self):
        """Reports are checked as they come; nothing to precompute."""

    def probe_series(self):
        return self.series

    def episode(self, tracer) -> Episode:
        cw = self.cw
        ep = Episode()
        sha = hashlib.sha256()
        counts = dict.fromkeys(("alert.edges_checked", "alert.edges_skipped_stale",
                                "alert.broken_edges", "alert.refits", "alert.removed"), 0)
        stream = cw.alert.tick_loop(self.graph, iter(self.ticks), cw.alert.AlertConfig(),
                                    recompute_policy=self.recompute, history=self.history)
        for _ in self.ticks:
            hit = stream.graph.edges
            ep.attempted += 1
            try:
                with tracer.op():
                    start = time.perf_counter()
                    line = next(stream).to_json()
                    ep.latencies.append(time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - a raised tick ends the replay
                ep.fail([f"tick raised {type(exc).__name__}: {exc}"])
                break
            sha.update(line.encode() + b"\n")
            report = json.loads(line)
            ep.fail(checks.check_report(report, hit, self.expect_quiet))
            counts["alert.edges_checked"] += report["edges_checked"]
            counts["alert.edges_skipped_stale"] += report["edges_skipped_stale"]
            counts["alert.broken_edges"] += len(report["broken_edges"])
            summary = getattr(stream, "last_recompute", None)
            if summary is not None:
                counts["alert.refits"] += len(summary.refitted)
                counts["alert.removed"] += len(summary.removed)
        out = self.workdir / "graph-out.json"
        cw.pipeline.save_graph(stream.graph, out)
        ep.graph_bytes = out.stat().st_size
        ep.digest = sha.hexdigest()
        counts.update({
            "pipeline.graph_bytes": ep.graph_bytes,
            "graph.edges_end": stream.graph.n_edges,
            "graph.history_entries": sum(len(n.alert_history) for n in stream.graph.nodes),
        })
        ep.counts = counts
        self.shape.update(edges_start=self.graph.n_edges, edges_end=stream.graph.n_edges)
        return ep


class MonitorCalm(_Monitor):
    name = "monitor-calm"
    expect_quiet = True  # jittered_tick keeps every edge in band by construction

    def setup(self):
        cw, p, seed = self.cw, self.p, self.seed
        u = cw.synth.planted_universe(n_clusters=p["clusters"], cluster_size=p["cluster_size"],
                                      n_independent=0, n_days=p["days"], seed=seed)
        calendar = u.table.calendar
        self.series = cw.pipeline.slice_window(u.table, calendar[0], calendar[-1]).series
        path = self.workdir / "graph.json"
        cw.pipeline.save_graph(cw.synth.planted_graph(self.series, u.clusters), path)
        self.graph = cw.pipeline.load_graph(path)
        fallback = {s.symbol: float(s.values[-1]) for s in self.series}
        base = cw.synth.baseline_tick(self.graph, fallback)
        pool = [cw.synth.jittered_tick(self.graph, base, seed=seed * 1000 + i)
                for i in range(p["jitter_pool"])]
        rng = np.random.default_rng(seed)
        symbols = [n.symbol for n in self.graph.nodes]
        self.ticks = []
        for t in range(p["ticks"]):
            keep = rng.random(len(symbols)) >= p["stale"]
            jitter = pool[t % len(pool)]
            self.ticks.append({s: jitter[s] for s, kept in zip(symbols, keep) if kept})
        self.shape = {"symbols": len(symbols), "days": p["days"], "ticks": p["ticks"],
                      "stale_fraction": p["stale"], "recompute": self.recompute}


class MonitorRefit(_Monitor):
    name = "monitor-refit"
    recompute = "onbreak"
    min_episodes = 2  # the report stream must repeat byte for byte

    def setup(self):
        cw, p, seed = self.cw, self.p, self.seed
        days, n_ticks = p["days"], p["ticks"]
        sectors = _sectors(cw, seed, p["sectors"], p["sector_size"], days + n_ticks)
        calendar = sectors[0][1].table.calendar
        prices_csv = self.workdir / "prices.csv"
        ticks_csv = self.workdir / "ticks.csv"
        cw.pipeline.write_prices_csv(prices_csv, calendar[:days],
                                     _columns(sectors, slice(0, days)))
        rng = np.random.default_rng(seed)
        keep = [rng.random((n_ticks, p["sector_size"])) >= p["stale"] for _ in sectors]
        cw.pipeline.write_prices_csv(ticks_csv, calendar[days:],
                                     _columns(sectors, slice(days, None), keep))

        table = cw.pipeline.load_prices(prices_csv)
        window = cw.pipeline.slice_window(table, table.calendar[0], table.calendar[-1])
        self.series = window.series
        pairs = []
        for prefix, _ in sectors:
            members = [s for s in self.series if s.symbol.startswith(prefix)]
            pairs.extend(cw.coint.scan_pairs(members, workers=p["workers"]).pairs)
        path = self.workdir / "graph.json"
        cw.pipeline.save_graph(
            cw.graph.build_graph(pairs, 0.05, [s.symbol for s in self.series]), path)
        self.graph = cw.pipeline.load_graph(path)
        self.history = self.series
        self.ticks = [tick for _, tick in cw.pipeline.load_ticks(ticks_csv)]
        self.shape = {"sectors": p["sectors"], "symbols": len(self.series), "days": days,
                      "ticks": len(self.ticks), "stale_fraction": p["stale"],
                      "workers": p["workers"], "recompute": self.recompute}


WORKLOADS = {w.name: w for w in (Build, MonitorCalm, MonitorRefit)}
