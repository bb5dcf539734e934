"""Leash checking, the per-tick pipeline, and its vertex-program oracle.

Per tick: update prices -> every edge whose endpoints are both fresh is
leash-checked -> the local alerts are folded into one report and a global
health verdict -> optionally, edges observed outside their leash are refit
on a trailing window and either re-admitted or dropped.

The paper's monitor is a synchronous vertex-centric job: fresh nodes
broadcast their prices along incident edges, and in a single superstep
each node checks the edges it received a price for. That job sends no
further messages, so it is one scan over the edges. The tick path runs it
as one numpy pass over edge arrays (tick_kernel over EdgeColumns), built
once per stream and patched after each refit (EdgeColumns.patched). The
vertex program (AlertVertexProgram fed by price_broadcast_messages through
run_supersteps, then assemble_report) stays as reference_tick, the oracle
the kernel is tested against: both give the same reports and node
versions, byte for byte.

Node state on the tick path is arrays too: last price, last-update epoch
and alert state, plus one append-only log of each tick's evaluated nodes
and their new states (graph.NodeSnapshot). A tick validates its prices in
bulk (graph.tick_prices, shared with update_prices), copies the three
arrays and appends one log entry, so its cost follows the edges and the
evaluated nodes, not the run's length. The kernel computes every edge's
deviation and reads only the checked ones; whether any edge has a zero
sigma is decided once per EdgeColumns. Each published version builds its
SymbolNode tuple, alert histories included, only when a caller reads
.nodes or exports it.

Refits read a trailing price window. Under the onbreak policy the stream
keeps it as one float64 array (one row per graph symbol of the supplied
history) used as a ring: each published tick overwrites the oldest column,
in O(symbols), and a tick that fails writes nothing. PriceSeries, oldest
price first, are materialised only for the endpoints of the edges that
broke in that tick. With recompute off no history is kept. All of a tick's
broken edges are fitted together (coint.coint_fit_batch: the scan's row
kernel, one stacked Cholesky factorization of the pairs' ADF moment
matrices); rows it cannot vouch for go through coint_fit alone, so outcomes
and errors are those of one coint_fit per edge, and the refit models'
pvalue and adf_stat agree with coint_fit's to rounding. The refits and
removals are published by patching only the edges they change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import graph as graphmod
from .coint import CointModel, PriceSeries, check_aligned, coint_fit, coint_fit_batch
from .engine import VertexMessage, VertexProgram, run_supersteps
from .errors import (
    CointwatchError,
    DegeneratePair,
    DegenerateRegressor,
    InsufficientWindow,
    SingularDesign,
    TooShort,
    UnknownEdge,
    ZeroSigma,
)
from .graph import ALERTED, CLEAR, CointGraph, neighbors

RECOMPUTE_OFF = "off"
RECOMPUTE_ON_BREAK = "onbreak"


@dataclass(frozen=True)
class AlertConfig:
    """Knobs for the alertness pipeline.

    sigma_k: leash width in residual standard deviations (alert on strictly
        greater deviation).
    epsilon: p-value threshold used when refitting broken edges.
    global_fraction: alerted-node fraction above which the default health
        reducer declares a global alert (an arbitrary, documented default;
        set per deployment).
    max_supersteps: vertex-job cap per tick on the reference path. The job
        halts after one superstep, so no value changes any output.
    latch_alerts: when True an alerted node stays alerted even if later
        ticks check clean; default re-evaluates every tick.
    """

    sigma_k: float = 3.0
    epsilon: float = 0.05
    global_fraction: float = 0.2
    max_supersteps: int = 1
    latch_alerts: bool = False

    def __post_init__(self):
        if not self.sigma_k > 0:
            raise ValueError(f"sigma_k must be > 0, got {self.sigma_k}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ValueError(f"global_fraction must be in [0, 1], got {self.global_fraction}")
        if self.max_supersteps < 1:
            raise ValueError(f"max_supersteps must be >= 1, got {self.max_supersteps}")


@dataclass(frozen=True)
class AlertReport:
    """One epoch's monitoring outcome.

    broken_edges holds (edge id, observed deviation in sigma units), each
    edge once. node_alerts lists the nodes that personally evaluated a
    failing check this epoch. edges_checked / edges_skipped_stale count
    endpoint evaluations (each edge is scheduled once per endpoint), so
    checked + skipped equals the total evaluations scheduled for the epoch.
    """

    epoch: int
    node_alerts: tuple[int, ...]
    broken_edges: tuple[tuple[int, float], ...]
    global_alert: bool
    edges_checked: int
    edges_skipped_stale: int

    def to_json(self) -> str:
        obj = {
            "epoch": self.epoch,
            "node_alerts": list(self.node_alerts),
            "broken_edges": [[eid, dev] for eid, dev in self.broken_edges],
            "global_alert": self.global_alert,
            "edges_checked": self.edges_checked,
            "edges_skipped_stale": self.edges_skipped_stale,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def leash_check(model, x_price: float, y_price: float, sigma_k: float):
    """Evaluate one directed pair at current prices.

    Returns (alert, deviation_sigmas) where the deviation is
    |y - (beta0 + beta1*x) - resid_mean| / resid_std and the alert fires on
    strict exceedance of sigma_k (a deviation of exactly k sigma is quiet).
    """
    if model.resid_std <= 0.0:
        raise ZeroSigma("leash check on a zero-sigma model; such edges must be excluded")
    u = y_price - (model.beta0 + model.beta1 * x_price)
    deviation = abs(u - model.resid_mean) / model.resid_std
    return deviation > sigma_k, deviation


def price_broadcast_messages(g: CointGraph) -> list[list[VertexMessage]]:
    """Initial-messages policy: every fresh node sends its last price along
    every incident edge (stale nodes stay silent)."""
    inboxes: list[list[VertexMessage]] = [[] for _ in range(g.n_nodes)]
    for eid in sorted(g.edges):
        e = g.edges[eid]
        if g.is_fresh(e.src):
            inboxes[e.dst].append(VertexMessage(e.src, g.nodes[e.src].last_price))
        if g.is_fresh(e.dst):
            inboxes[e.src].append(VertexMessage(e.dst, g.nodes[e.dst].last_price))
    return inboxes


@dataclass(frozen=True)
class AlertVertexState:
    """Per-node outcome of one tick's checks."""

    node: graphmod.SymbolNode
    failed: tuple[tuple[int, float], ...] = ()
    checked: int = 0
    skipped: int = 0
    evaluated: bool = False


class AlertVertexProgram(VertexProgram):
    """Each node leash-checks every incident edge for which both endpoint
    prices are fresh this epoch; any failing check raises its local alert.

    The program is bound to one published graph version for topology and
    models; neighbor prices arrive as messages."""

    def __init__(self, g: CointGraph, config: AlertConfig):
        self.graph = g
        self.config = config

    def init_state(self, node):
        return AlertVertexState(node=node)

    def compute(self, state: AlertVertexState, inbox, epoch):
        node = state.node
        prices = {m.src: m.payload for m in inbox}
        self_fresh = self.graph.is_fresh(node.id)
        checked = 0
        skipped = 0
        failed: list[tuple[int, float]] = []
        for edge, nbr in neighbors(self.graph, node.id):
            if not self_fresh or nbr not in prices:
                skipped += 1
                continue
            if edge.src == node.id:
                x_price, y_price = node.last_price, prices[nbr]
            else:
                x_price, y_price = prices[nbr], node.last_price
            alert, deviation = leash_check(edge.model, x_price, y_price, self.config.sigma_k)
            checked += 1
            if alert:
                failed.append((edge.id, deviation))

        evaluated = checked > 0
        if evaluated:
            if failed:
                new_alert = ALERTED
            elif self.config.latch_alerts and node.alert_state == ALERTED:
                new_alert = ALERTED
            else:
                new_alert = CLEAR
            history = node.alert_history + ((epoch, new_alert),)
            node = replace(node, alert_state=new_alert, alert_history=history)
        new_state = AlertVertexState(
            node=node,
            failed=tuple(failed),
            checked=checked,
            skipped=skipped,
            evaluated=evaluated,
        )
        return new_state, [], True


HealthFn = Callable[[CointGraph, AlertReport, AlertConfig], bool]


def global_reduce(
    g: CointGraph,
    report: AlertReport,
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> bool:
    """Fold local alerts into the global verdict.

    Default health function: alert iff the alerted-node fraction strictly
    exceeds config.global_fraction. Pass health_fn to plug in a different
    policy (sector-weighted, severity-based, ...).
    """
    if health_fn is not None:
        return bool(health_fn(g, report, config))
    if g.n_nodes == 0:
        return False
    return len(report.node_alerts) / g.n_nodes > config.global_fraction


def assemble_report(
    g: CointGraph,
    states: Sequence[AlertVertexState],
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> AlertReport:
    """Merge per-node outcomes into the epoch report (each broken edge
    recorded once, both observing endpoints alerted)."""
    broken: dict[int, float] = {}
    node_alerts: list[int] = []
    checked = 0
    skipped = 0
    for state in states:
        checked += state.checked
        skipped += state.skipped
        if state.failed:
            node_alerts.append(state.node.id)
        for eid, deviation in state.failed:
            broken.setdefault(eid, deviation)
    partial = AlertReport(
        epoch=g.epoch,
        node_alerts=tuple(sorted(node_alerts)),
        broken_edges=tuple(sorted(broken.items())),
        global_alert=False,
        edges_checked=checked,
        edges_skipped_stale=skipped,
    )
    return replace(partial, global_alert=global_reduce(g, partial, config, health_fn))


def reference_tick(
    g: CointGraph,
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> tuple[list[AlertVertexState], AlertReport]:
    """One tick's checks as the vertex-centric job on a priced graph version.

    Slow; kept as the oracle that tick_kernel must match. Returns the
    per-node states (indexed by node id) and the epoch report.
    """
    program = AlertVertexProgram(g, config)
    states, _ = run_supersteps(
        g,
        program,
        max_supersteps=config.max_supersteps,
        initial_messages=price_broadcast_messages,
    )
    return states, assemble_report(g, states, config, health_fn)


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """One edge collection as arrays in edge-id order."""

    eid: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    resid_mean: np.ndarray
    resid_std: np.ndarray

    @cached_property
    def zero_sigma(self) -> np.ndarray:
        """Rows whose resid_std <= 0: a tick that checks one of them raises."""
        return np.flatnonzero(self.resid_std <= 0.0)

    @classmethod
    def of(cls, edges: Mapping[int, graphmod.CointEdge]) -> "EdgeColumns":
        ordered = [edges[eid] for eid in sorted(edges)]
        models = [e.model for e in ordered]
        return cls(
            eid=np.array([e.id for e in ordered], dtype=np.int64),
            src=np.array([e.src for e in ordered], dtype=np.intp),
            dst=np.array([e.dst for e in ordered], dtype=np.intp),
            beta0=np.array([m.beta0 for m in models], dtype=np.float64),
            beta1=np.array([m.beta1 for m in models], dtype=np.float64),
            resid_mean=np.array([m.resid_mean for m in models], dtype=np.float64),
            resid_std=np.array([m.resid_std for m in models], dtype=np.float64),
        )

    def patched(
        self, edges: Mapping[int, graphmod.CointEdge], summary: RecomputeSummary
    ) -> "EdgeColumns":
        """The columns after a recompute that left `edges`: the removed
        edges' rows dropped, the refit edges' model columns overwritten.
        Equal to EdgeColumns.of(edges) when these columns were the ones of
        the recomputed graph; built without a pass over every edge object.
        """
        if not summary.refitted and not summary.removed:
            return self
        keep = np.ones(len(self.eid), dtype=bool)
        keep[np.searchsorted(self.eid, summary.removed)] = False
        cols = {f.name: getattr(self, f.name)[keep] for f in fields(self)}
        rows = np.searchsorted(cols["eid"], summary.refitted)
        models = [edges[eid].model for eid in summary.refitted]
        for name in ("beta0", "beta1", "resid_mean", "resid_std"):
            cols[name][rows] = [getattr(m, name) for m in models]
        return EdgeColumns(**cols)


def tick_kernel(
    g: CointGraph,
    columns: EdgeColumns,
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> tuple[AlertReport, np.ndarray, np.ndarray]:
    """One tick's checks as one pass over edge and node arrays; same results
    as reference_tick, bit for bit.

    g is a priced version whose nodes are held as a graph.NodeSnapshot (as
    TickStream publishes them); `columns` must describe g.edges
    (EdgeColumns.of(g.edges), or columns patched to match). Returns the
    epoch report, the ids of the nodes that evaluated at least one check
    and their new alerted flags. No node object is built, unless health_fn
    reads g.nodes.

    Deviations are computed over every edge, stale ones included, and only
    the checked edges' are read.

    Raises:
        ZeroSigma: a checked edge has resid_std <= 0.
    """
    nodes = g.node_source
    epoch = g.epoch
    price = nodes.price
    fresh = (nodes.updated == epoch) & ~np.isnan(price)

    src, dst = columns.src, columns.dst
    checked = fresh[src] & fresh[dst]
    if len(columns.zero_sigma) and checked[columns.zero_sigma].any():
        raise ZeroSigma("leash check on a zero-sigma model; such edges must be excluded")
    # leash_check's operation order, so every deviation is bit-identical;
    # like Python floats, overflow gives inf/nan silently, and so do the
    # stale (NaN-priced) and zero-sigma edges that are never read
    with np.errstate(all="ignore"):
        # |y - (beta0 + beta1*x) - resid_mean| / resid_std, in place
        fitted = price[src]
        fitted *= columns.beta1
        fitted += columns.beta0
        deviation = price[dst]
        deviation -= fitted
        deviation -= columns.resid_mean
        np.abs(deviation, out=deviation)
        deviation /= columns.resid_std
        failing = np.flatnonzero(checked & (deviation > config.sigma_k))

    alerted = np.zeros(g.n_nodes, dtype=bool)
    alerted[src[failing]] = True
    alerted[dst[failing]] = True
    evaluated = np.zeros(g.n_nodes, dtype=bool)
    evaluated[src[checked]] = True
    evaluated[dst[checked]] = True

    # each edge is scheduled once per endpoint
    edges_checked = 2 * int(np.count_nonzero(checked))
    node_alerts = tuple(np.flatnonzero(alerted).tolist())
    broken = tuple(zip(columns.eid[failing].tolist(), deviation[failing].tolist()))
    skipped = 2 * g.n_edges - edges_checked
    report = AlertReport(epoch, node_alerts, broken, False, edges_checked, skipped)
    if global_reduce(g, report, config, health_fn):
        report = AlertReport(epoch, node_alerts, broken, True, edges_checked, skipped)

    ids = np.flatnonzero(evaluated)
    flags = alerted[ids]
    if config.latch_alerts:
        flags |= nodes.alerted[ids]
    return report, ids, flags


@dataclass(frozen=True)
class RecomputeSummary:
    refitted: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()


def selective_recompute(
    g: CointGraph,
    broken: Iterable[int],
    window: Sequence[PriceSeries],
    config: AlertConfig,
) -> tuple[CointGraph, RecomputeSummary]:
    """Refit only the broken edges on the supplied window.

    An edge whose refit clears pvalue < epsilon gets the new model (broken
    flag cleared); one that does not is removed from the graph. Edges not
    listed are left untouched (same objects, same bytes).

    The broken edges are fitted together (coint_fit_batch); an edge the
    batch cannot vouch for is fitted by coint_fit alone. Outcomes, OLS
    fields and errors are those of one coint_fit per edge in edge-id order;
    pvalue and adf_stat agree with it to rounding.

    Raises:
        UnknownEdge: a broken id is not an edge of g.
        InsufficientWindow: the window lacks an endpoint's symbol, or is
            too short to fit.
        Whatever else coint_fit raises, except DegeneratePair,
            DegenerateRegressor and SingularDesign: a pair with zero
            residual spread, a constant source, or residuals whose ADF
            design is rank-deficient (a window that repeats one price long
            enough) carries no testable leash, so the edge is removed.
    """
    by_symbol = {p.symbol: p for p in window}
    pairs: dict[int, tuple[PriceSeries, PriceSeries]] = {}
    invalid = None
    for eid in sorted(set(broken)):
        try:
            pairs[eid] = _endpoint_series(g, eid, by_symbol)
        except (UnknownEdge, InsufficientWindow) as exc:
            # raised once the edges before it are fitted, as one coint_fit
            # per edge in id order would
            invalid = exc
            break
    refits: dict[int, CointModel] = {}
    removed: list[int] = []
    for (eid, (x, y)), model in zip(pairs.items(), coint_fit_batch(list(pairs.values()))):
        if model is None:
            try:
                model = coint_fit(x, y)
            except TooShort as exc:
                raise InsufficientWindow(f"{x.symbol}->{y.symbol}: {exc}") from exc
            except (DegeneratePair, DegenerateRegressor, SingularDesign):
                removed.append(eid)
                continue
        if model.pvalue < config.epsilon:
            refits[eid] = model
        else:
            removed.append(eid)
    if invalid is not None:
        raise invalid
    out = graphmod.remove_edges(graphmod.replace_models(g, refits), removed)
    return out, RecomputeSummary(refitted=tuple(refits), removed=tuple(removed))


def _endpoint_series(
    g: CointGraph, eid: int, by_symbol: Mapping[str, PriceSeries]
) -> tuple[PriceSeries, PriceSeries]:
    if eid not in g.edges:
        raise UnknownEdge(f"edge id {eid} is not in the graph")
    edge = g.edges[eid]
    symbols = (g.symbol(edge.src), g.symbol(edge.dst))
    for sym in symbols:
        if sym not in by_symbol:
            raise InsufficientWindow(f"window does not cover symbol {sym!r}")
    return by_symbol[symbols[0]], by_symbol[symbols[1]]


class _History:
    """Trailing price window used for selective refits.

    One float64 row per graph symbol the supplied history holds (refits
    touch edge endpoints only); rows are keyed by node id, resolved once.
    The columns form a ring: column `start` holds the oldest price, and
    the one before it the newest. A tick first makes its column (column),
    reads its refit windows with that column appended (window), and only
    once it publishes overwrites the oldest column with it (push), so a
    tick costs O(symbols) and a failed tick leaves the history as it was.
    """

    def __init__(self, window: Sequence[PriceSeries], g: CointGraph):
        check_aligned(window)
        kept = [p for p in window if p.symbol in g.symbol_ids]
        self.length = len(window[0])
        self.symbols = [p.symbol for p in kept]
        node_ids = [g.symbol_ids[p.symbol] for p in kept]
        self.node_ids = np.array(node_ids, dtype=np.intp)
        self.rows = {nid: row for row, nid in enumerate(node_ids)}
        self.prices = np.array([p.values for p in kept], dtype=np.float64).reshape(
            len(kept), self.length
        )
        self.start = 0

    def column(self, price: np.ndarray) -> np.ndarray:
        """The column a tick appends: every node's last price (a node-id
        indexed array, NaN while unpriced); a node never priced repeats its
        newest value."""
        latest = price[self.node_ids]
        if not self.length:  # an empty window has no column to repeat
            return latest
        return np.where(np.isnan(latest), self.prices[:, self.start - 1], latest)

    def push(self, column: np.ndarray):
        """Publish a tick's column in place of the oldest."""
        if self.length:
            self.prices[:, self.start] = column
            self.start = (self.start + 1) % self.length

    def window(self, epoch: int, node_ids: Iterable[int], column: np.ndarray) -> list[PriceSeries]:
        """The trailing series of those given nodes that the history holds,
        as they would be once `column` is pushed."""
        wid = f"trailing-{self.length}@{epoch}"
        rows = sorted(self.rows[nid] for nid in set(node_ids) if nid in self.rows)
        block = self.prices[rows]
        if self.length:
            block[:, self.start] = column[rows]
            # oldest first: the columns after the overwritten one, then the
            # rest up to the new column
            split = self.start + 1
            block = np.concatenate((block[:, split:], block[:, :split]), axis=1)
        return [PriceSeries(self.symbols[row], values, wid) for row, values in zip(rows, block)]


class TickStream:
    """Iterator over per-tick AlertReports; .graph tracks the latest
    published graph version (refits and removals included).

    Ticks run through tick_kernel. The stream builds the edge columns once,
    on the first tick, and keeps them across ticks: broken flags are not a
    column, and after a recompute the columns are patched from its
    RecomputeSummary (EdgeColumns.patched) rather than rebuilt. `workers` is
    accepted but unused: the output never depended on it.

    Node state is kept as a graph.NodeSnapshot: per-node arrays plus the
    run's append-only alert log. No tick builds a SymbolNode; each version
    in .graph holds its own copy of the arrays and the log length at its
    epoch, and builds its nodes once, when read or exported. A failed tick
    publishes nothing, appends nothing to the log and leaves
    last_recompute as it was.

    Under the onbreak policy the price history is kept as a trailing
    window (_History), advanced by every tick that publishes; a failed tick
    leaves it as it was. A history whose series differ in window id or
    length raises MisalignedCalendar here. With recompute off the history
    is ignored.
    """

    def __init__(
        self,
        g: CointGraph,
        ticks: Iterable[Mapping[str, float]],
        config: AlertConfig,
        recompute_policy: str = RECOMPUTE_OFF,
        workers: int = 1,
        history: Sequence[PriceSeries] | None = None,
        health_fn: HealthFn | None = None,
    ):
        if recompute_policy not in (RECOMPUTE_OFF, RECOMPUTE_ON_BREAK):
            raise ValueError(f"unknown recompute policy {recompute_policy!r}")
        self.graph = g
        self.config = config
        self.policy = recompute_policy
        self.health_fn = health_fn
        self.last_recompute: RecomputeSummary | None = None
        self._ticks = iter(ticks)
        # only refits read the history, so with recompute off none is kept
        self._history = (
            _History(history, g) if history and recompute_policy == RECOMPUTE_ON_BREAK else None
        )
        self._columns: EdgeColumns | None = None
        self._nodes = graphmod.NodeSnapshot.start(g)

    def __iter__(self) -> Iterator[AlertReport]:
        return self

    def __next__(self) -> AlertReport:
        tick = next(self._ticks)
        try:
            return self._step(tick)
        except CointwatchError as exc:
            message = f"tick for epoch {self.graph.epoch + 1} failed: {exc}"
            # made without __init__, so the class is kept whatever its
            # constructor takes, and so are its attributes (ParseError.line,
            # SchemaViolation.path)
            wrapped = type(exc).__new__(type(exc), message)
            wrapped.__dict__.update(vars(exc))
            raise wrapped from exc

    def _step(self, tick: Mapping[str, float]) -> AlertReport:
        ids, prices = graphmod.tick_prices(self.graph.symbol_ids, tick)
        g = self.graph
        epoch = g.epoch + 1
        priced = self._nodes.priced(ids, prices, epoch)
        g = CointGraph(priced, g.edges, g.out_edges, g.in_edges, epoch, g.symbol_ids)
        if self._columns is None:
            self._columns = EdgeColumns.of(g.edges)
        report, evaluated, flags = tick_kernel(g, self._columns, self.config, self.health_fn)

        broken_ids = [eid for eid, _ in report.broken_edges]
        g = graphmod.mark_broken(g, broken_ids)

        column = None if self._history is None else self._history.column(priced.price)
        summary = None
        if self.policy == RECOMPUTE_ON_BREAK and broken_ids:
            if self._history is None:
                raise InsufficientWindow(
                    "recompute policy is on but no price history window was provided"
                )
            endpoints = [v for eid in broken_ids for v in (g.edges[eid].src, g.edges[eid].dst)]
            window = self._history.window(epoch, endpoints, column)
            g, summary = selective_recompute(g, broken_ids, window, self.config)
            self._columns = self._columns.patched(g.edges, summary)

        # published last, so a failed tick leaves the stream, its log and
        # its history as they were
        self._nodes = priced.evaluated(epoch, evaluated, flags)
        if column is not None:
            self._history.push(column)
        self.graph = CointGraph(self._nodes, g.edges, g.out_edges, g.in_edges, epoch, g.symbol_ids)
        self.last_recompute = summary
        return report


def tick_loop(
    g: CointGraph,
    ticks: Iterable[Mapping[str, float]],
    config: AlertConfig,
    recompute_policy: str = RECOMPUTE_OFF,
    workers: int = 1,
    history: Sequence[PriceSeries] | None = None,
    health_fn: HealthFn | None = None,
) -> TickStream:
    """Drive the alertness pipeline over an ordered tick stream.

    Returns a TickStream yielding one AlertReport per tick, in order; the
    whole run is deterministic for fixed inputs, config, and seeds. A
    failing tick aborts iteration with the epoch number in the diagnostic.
    """
    return TickStream(
        g,
        ticks,
        config,
        recompute_policy=recompute_policy,
        workers=workers,
        history=history,
        health_fn=health_fn,
    )
