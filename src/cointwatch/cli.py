"""Command-line interface.

Subcommands:
  build      prices CSV -> cointegration graph JSON
  run        graph + tick CSV -> line-delimited JSON alert reports
  recompute  refit a listed set of broken edges on a price window
  export     graph JSON -> DOT or canonical JSON on stdout/file
  gen        seeded synthetic universes and shock/turbulence scenarios

Exit codes: 0 success, 1 usage error, 2 data/model error. All randomness is
seed-controlled; identical invocations produce identical outputs. Every
output file is written through _replaced_on_success, so a command that
exits non-zero leaves no new output and an existing one as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

from . import alert, coint, graph as graphmod, pipeline, stats, synth
from .errors import CointwatchError, EmptyWindow, InsufficientWindow, TooShort

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return USAGE_EXIT


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an ISO-8601 date") from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _edge_ids(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated id list") from None


@contextmanager
def _replaced_on_success(*paths):
    """The paths to write in place of the given ones. A file's is a
    temporary file beside it (beside a symlink's target), which replaces it
    when the block ends without error; on an error it is removed, so the
    file is left as it was. None, and a path that exists but is not a
    regular file (a device such as /dev/null, a pipe), are given as they
    are: those are written in place."""
    # temporary file -> (the file it replaces, the path given for it)
    staged: dict[Path, tuple[Path, str]] = {}
    writes = []
    for path in paths:
        if path is None or (os.path.exists(path) and not os.path.isfile(path)):
            writes.append(path)
            continue
        target = Path(os.path.realpath(path))
        temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        staged[temp] = (target, path)
        writes.append(temp)
    try:
        yield writes
        for temp, (target, _) in staged.items():
            os.replace(temp, target)
    except OSError as exc:
        # an error names the path given, not its temporary stand-in
        if exc.filename is not None and Path(exc.filename) in staged:
            exc.filename = staged[Path(exc.filename)][1]
        raise
    finally:
        for temp in staged:
            temp.unlink(missing_ok=True)


def _window_series(prices_path, start, end):
    """The file's price table and its slice over [start, end], a bound not
    given being the file's first or last date. A window holding none of the
    file's dates is an EmptyWindow (a data error) naming the bounds given
    and the file's first and last dates."""
    table = pipeline.load_prices(prices_path, start, end)
    first, last = table.calendar[0], table.calendar[-1]
    lo, hi = start or first, end or last
    if not any(lo <= day <= hi for day in table.calendar):
        bounds = [f"--{flag} {day}" for flag, day in (("from", start), ("to", end)) if day]
        raise EmptyWindow(
            f"window {' '.join(bounds)} holds no date of {prices_path}: "
            f"its dates run from {first} to {last}"
        )
    return table, pipeline.slice_window(table, lo, hi)


def _refit_history(prices_path, start, end):
    """The window's series that recompute and onbreak refits fit on. A
    window with fewer dates than coint_fit's ADF lag rule (stats.default_lag)
    needs is an InsufficientWindow naming the window, raised before any fit
    is made or tick is read."""
    _, window = _window_series(prices_path, start, end)
    if window.series:  # aligned, so of one length
        try:
            # the default lag order leaves the lags + 4 samples the ADF
            # regression needs, so the lag rule's minimum is the bound
            stats.default_lag(len(window.series[0].values))
        except TooShort as exc:
            raise InsufficientWindow(
                f"refit window {window.window_id} of {prices_path} is too short to fit "
                f"a pair on: {exc}"
            ) from None
    return window.series


def _report_skips(scan: coint.ScanResult) -> None:
    """One stderr line per skip reason (exception type): count and the first
    pair in canonical order as the example."""
    by_type: dict[str, list[int]] = {}
    for k, reason in enumerate(scan.reasons):
        by_type.setdefault(reason.split(":", 1)[0], []).append(k)
    for kind in sorted(by_type):
        first = by_type[kind][0]
        src, dst = scan.skipped_src[first], scan.skipped_dst[first]
        print(
            f"skipped {len(by_type[kind])} pairs with {kind}, e.g. "
            f"{scan.symbols[src]}->{scan.symbols[dst]}: {scan.reasons[first]}",
            file=sys.stderr,
        )


def _cmd_build(args) -> int:
    # the flags are checked before any input is read
    coint.check_epsilon(args.alpha)
    stats.check_lags(args.lags)
    table, window = _window_series(args.prices, args.window_start, args.window_end)
    for symbol, reason in table.excluded + window.excluded:
        print(f"excluded {symbol}: {reason}", file=sys.stderr)
    scan = coint.scan_pairs(
        window.series,
        epsilon=args.alpha,
        direction_policy=args.direction,
        workers=args.workers,
        lags=args.lags,
    )
    _report_skips(scan)
    g = graphmod.build_graph(scan, args.alpha, [s.symbol for s in window.series])
    with _replaced_on_success(args.out) as (out,):
        pipeline.save_graph(g, out)
    print(
        f"built graph: {g.n_nodes} nodes, {g.n_edges} edges "
        f"({len(scan.src)} pairs evaluated, {len(scan.reasons)} skipped) -> {args.out}"
    )
    return 0


def _tick_line(
    day: date, report: alert.AlertReport, summary: alert.RecomputeSummary | None
) -> str:
    """run's stdout summary of one tick."""
    # each edge is scheduled once per endpoint, so the evaluated graph's
    # edge count is half the scheduled evaluations
    evaluated = (report.edges_checked + report.edges_skipped_stale) // 2
    surviving = evaluated - len(report.broken_edges)
    line = (
        f"{day.isoformat()} epoch {report.epoch}: "
        f"checked {report.edges_checked}, skipped {report.edges_skipped_stale}, "
        f"broken {len(report.broken_edges)}, surviving {surviving}, "
        f"global_alert={str(report.global_alert).lower()}"
    )
    if summary is not None:
        line += f", refit {len(summary.refitted)}, removed {len(summary.removed)}"
    return line


def _cmd_run(args) -> int:
    config = alert.AlertConfig(
        sigma_k=args.sigma, epsilon=args.epsilon, global_fraction=args.global_fraction
    )
    if args.recompute == alert.RECOMPUTE_ON_BREAK and args.prices is None:
        raise CointwatchError("--recompute onbreak requires --prices for the refit window")
    g = pipeline.load_graph(args.graph)
    # only onbreak refits read the price history
    history = None
    if args.recompute == alert.RECOMPUTE_ON_BREAK:
        history = _refit_history(args.prices, args.window_start, args.window_end)
    ticks = pipeline.load_ticks(args.ticks)

    stream = alert.tick_loop(
        g,
        (tick for _, tick in ticks),
        config,
        recompute_policy=args.recompute,
        history=history,
    )
    # a failed run leaves no new --out or --graph-out, and an old one as it was
    with _replaced_on_success(args.out, args.graph_out) as (out, graph_out):
        with open(out, "w") as fh:
            for (day, _), report in zip(ticks, stream):
                fh.write(report.to_json() + "\n")
                print(_tick_line(day, report, stream.last_recompute))
        if graph_out is not None:
            pipeline.save_graph(stream.graph, graph_out)
    print(f"wrote {len(ticks)} reports -> {args.out}")
    return 0


def _cmd_recompute(args) -> int:
    config = alert.AlertConfig(epsilon=args.epsilon)
    if args.broken is None and args.broken_file is None:
        raise CointwatchError("no broken edges given; pass --broken or --broken-file")
    g = pipeline.load_graph(args.graph)
    broken = args.broken
    if args.broken_file is not None:
        try:
            broken = json.loads(Path(args.broken_file).read_text())
        except ValueError as exc:  # JSONDecodeError, or an int too long to parse
            raise CointwatchError(f"{args.broken_file}: invalid JSON input: {exc}") from exc
        if not isinstance(broken, list) or not all(type(i) is int for i in broken):
            raise CointwatchError(f"{args.broken_file}: expected a JSON list of edge ids")
    history = _refit_history(args.prices, args.window_start, args.window_end)
    g2, summary = alert.selective_recompute(g, broken, history, config)
    with _replaced_on_success(args.out) as (out,):
        pipeline.save_graph(g2, out)
    print(
        f"recomputed {len(summary.refitted) + len(summary.removed)} edges: "
        f"{len(summary.refitted)} refitted, {len(summary.removed)} removed -> {args.out}"
    )
    return 0


def _cmd_export(args) -> int:
    g = pipeline.load_graph(args.graph)
    payload = graphmod.export(g, args.format)
    if args.out == "-":
        sys.stdout.write(payload.decode("utf-8"))
    else:
        with _replaced_on_success(args.out) as (out,):
            Path(out).write_bytes(payload)
    return 0


def _gen_dates(last: date, count: int) -> list[date]:
    return [last + timedelta(days=i + 1) for i in range(count)]


def _cmd_gen(args) -> int:
    if args.kind == "universe":
        universe = synth.planted_universe(
            n_clusters=args.clusters,
            cluster_size=args.cluster_size,
            n_independent=args.independents,
            n_days=args.days,
            seed=args.seed,
            start=args.start,
        )
        table = universe.table
        columns = {s: table.prices[:, j] for j, s in enumerate(table.symbols)}
        with _replaced_on_success(args.out) as (out,):
            pipeline.write_prices_csv(out, table.calendar, columns)
        print(
            f"wrote universe: {len(table.symbols)} symbols x {len(table.calendar)} days "
            f"({args.clusters} clusters of {args.cluster_size}) -> {args.out}"
        )
        return 0

    g = pipeline.load_graph(args.graph)
    table, window = _window_series(args.prices, None, None)
    fallback = {s.symbol: float(s.values[-1]) for s in window.series}
    base = synth.baseline_tick(g, fallback)
    last_day = table.calendar[-1]

    if args.kind == "ticks":
        # each day's tick is drawn as the writer reaches it, so one is held at a time
        ticks = synth.jittered_ticks(g, base, range(args.seed, args.seed + args.count))
        with _replaced_on_success(args.out) as (out,):
            pipeline.write_prices_csv(out, _gen_dates(last_day, args.count), ticks)
        print(f"wrote {args.count} in-band ticks -> {args.out}")
        return 0

    if args.kind == "shock":
        tick, expected = synth.shock_tick(
            g, base, args.symbol, sigmas=args.sigmas, break_all=(args.mode == "all")
        )
    else:  # turbulent: argparse admits only the four kinds
        tick, expected = synth.turbulent_tick(
            g, base, fraction=args.fraction, seed=args.seed, sigmas=args.sigmas
        )
    with _replaced_on_success(args.out, args.expected) as (out, expected_out):
        pipeline.write_prices_csv(out, _gen_dates(last_day, 1), [tick])
        if expected_out is not None:
            Path(expected_out).write_text(json.dumps(list(expected)) + "\n")
    print(f"wrote {args.kind} tick breaking {len(expected)} edges -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cointwatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="fit all pairs and build the cointegration graph")
    p.add_argument("--prices", required=True)
    p.add_argument("--from", dest="window_start", type=_iso_date, default=None)
    p.add_argument("--to", dest="window_end", type=_iso_date, default=None)
    p.add_argument("--alpha", type=float, default=0.05, help="admission p-value threshold")
    p.add_argument(
        "--direction", choices=(coint.DIRECTION_BOTH, coint.DIRECTION_SINGLE),
        default=coint.DIRECTION_BOTH,
    )
    p.add_argument("--lags", type=int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("run", help="replay a tick file through the alert pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--ticks", required=True)
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--global-fraction", dest="global_fraction", type=float, default=0.2)
    p.add_argument(
        "--recompute", choices=(alert.RECOMPUTE_OFF, alert.RECOMPUTE_ON_BREAK),
        default=alert.RECOMPUTE_OFF,
    )
    p.add_argument("--prices", default=None, help="price history for --recompute onbreak")
    p.add_argument("--from", dest="window_start", type=_iso_date, default=None)
    p.add_argument("--to", dest="window_end", type=_iso_date, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", dest="graph_out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("recompute", help="refit the listed broken edges on a window")
    p.add_argument("--graph", required=True)
    p.add_argument("--broken", type=_edge_ids, default=None)
    p.add_argument("--broken-file", dest="broken_file", default=None)
    p.add_argument("--prices", required=True)
    p.add_argument("--from", dest="window_start", type=_iso_date, default=None)
    p.add_argument("--to", dest="window_end", type=_iso_date, default=None)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recompute)

    p = sub.add_parser("export", help="serialize a graph to DOT or JSON")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--format", choices=(graphmod.FORMAT_DOT, graphmod.FORMAT_JSON),
        default=graphmod.FORMAT_DOT,
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("gen", help="generate synthetic universes and scenarios")
    p.add_argument("kind", choices=("universe", "ticks", "shock", "turbulent"))
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--clusters", type=_non_negative_int, default=1)
    p.add_argument("--cluster-size", dest="cluster_size", type=_non_negative_int, default=5)
    p.add_argument("--independents", type=_non_negative_int, default=5)
    p.add_argument("--days", type=_positive_int, default=250)
    p.add_argument("--start", type=_iso_date, default=synth.DEFAULT_START)
    p.add_argument("--graph", default=None)
    p.add_argument("--prices", default=None)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--symbol", default=None)
    p.add_argument("--sigmas", type=float, default=6.0)
    p.add_argument("--mode", choices=("all", "none"), default="all")
    p.add_argument("--fraction", type=float, default=0.25)
    p.add_argument("--expected", default=None, help="write the expected broken-edge ids as JSON")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    start, end = getattr(args, "window_start", None), getattr(args, "window_end", None)
    if start is not None and end is not None and start > end:
        return parser.exit_with(f"window start {start} is after end {end}")
    # each gen kind checks only the flags it reads
    kind = args.kind if args.command == "gen" else None
    if kind in ("ticks", "shock", "turbulent") and (args.graph is None or args.prices is None):
        return parser.exit_with(f"gen {kind} requires --graph and --prices")
    if kind == "universe" and args.clusters * args.cluster_size + args.independents == 0:
        return parser.exit_with(
            "gen universe needs at least one symbol: --clusters x --cluster-size "
            "+ --independents is 0"
        )
    if kind == "shock" and args.symbol is None:
        return parser.exit_with("gen shock requires --symbol")
    if kind in ("shock", "turbulent") and not 0.0 < args.sigmas < math.inf:
        return parser.exit_with(f"--sigmas must be a positive finite number, got {args.sigmas}")
    if kind == "turbulent" and not 0.0 < args.fraction <= 1.0:
        return parser.exit_with(f"--fraction must be in (0, 1], got {args.fraction}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"cointwatch: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CointwatchError as exc:
        print(f"cointwatch: error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"cointwatch: error: {exc}", file=sys.stderr)
        return DATA_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
