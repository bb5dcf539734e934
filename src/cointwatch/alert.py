"""Leash checking and the per-tick pipeline.

Per tick: update prices -> every edge whose endpoints are both fresh is
leash-checked -> the local alerts are folded into one report and a global
health verdict -> optionally, edges observed outside their leash are refit
on a trailing window and either re-admitted or dropped.

The paper's monitor is a synchronous vertex-centric job: fresh nodes
broadcast their prices along incident edges, and each node checks the
edges it received a price for. That job sends no further messages, so it
is one scan over the edges. TickStream (public name tick_loop) runs each
tick through tick_kernel, the package's only tick implementation: one
numpy pass over the graph's own edge columns (graph.EdgeColumns), which
graph._patch replaces when edges break, refit or go. The per-node job,
in which each node checks its own neighbourhood against its fresh
neighbours' prices, is kept with the tests (tests/oracle.py) as the
reference the kernel must match: the same reports and node versions, byte
for byte.

Every graph version holds its node state as arrays too: last price,
last-update epoch and alert state, plus one append-only log of each tick's
evaluated nodes and their new states (graph.NodeSnapshot). A tick prices
the version with graph.update_prices, copies the alert flags and appends
one log entry, so its cost follows the edges and the evaluated nodes, not
the run's length. The kernel computes every edge's deviation and reads
only the checked ones; whether any edge has a zero sigma is decided once
per columns object. Each published version builds its SymbolNode tuple,
alert histories included, only when a caller reads .nodes or exports it.

Refits read a trailing price window. Under the onbreak policy the stream
keeps it as one float64 array (one row per graph symbol of the supplied
history) used as a ring: each published tick overwrites the oldest column,
in O(symbols), and a tick that fails writes nothing. A tick's refit copies
the ring rows of its broken edges' distinct endpoints, oldest price first,
into one block, and fits every broken edge as an index pair into it
(coint.fit_pairs: the scan's row kernel, one ADF design per series and one
stacked Cholesky factorization of the pairs' ADF moment matrices). Only a
pair fit_pairs declines gets PriceSeries, for coint_fit alone, so outcomes
and errors are those of one coint_fit per edge, and the refit models'
pvalue and adf_stat agree with coint_fit's to rounding. The refits and
removals are published as one column patch (graph._patch): each column it
writes or cuts is copied once. With recompute off no history is kept.
selective_recompute holds its window as the same _History, with no tick
column appended, and runs the same refit (_History.refit). Either way a
window whose series differ in window id or length raises
MisalignedCalendar before any fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import graph as graphmod
from .coint import PriceSeries, ScanResult, admits, check_aligned, coint_fit, fit_pairs
from .errors import (
    CointwatchError,
    DegeneratePair,
    DegenerateRegressor,
    InsufficientWindow,
    NonFiniteFit,
    SingularDesign,
    TooShort,
    ZeroSigma,
)
from .graph import CointGraph

RECOMPUTE_OFF = "off"
RECOMPUTE_ON_BREAK = "onbreak"


@dataclass(frozen=True)
class AlertConfig:
    """Knobs for the alertness pipeline.

    sigma_k: leash width in residual standard deviations (alert on strictly
        greater deviation); a positive finite number, since no deviation
        exceeds an infinite leash.
    epsilon: p-value threshold used when refitting broken edges.
    global_fraction: alerted-node fraction above which the default health
        reducer declares a global alert (an arbitrary, documented default;
        set per deployment).
    latch_alerts: when True an alerted node stays alerted even if later
        ticks check clean; default re-evaluates every tick.
    """

    sigma_k: float = 3.0
    epsilon: float = 0.05
    global_fraction: float = 0.2
    latch_alerts: bool = False

    def __post_init__(self):
        if not 0.0 < self.sigma_k < math.inf:
            raise ValueError(f"sigma_k must be a positive finite number, got {self.sigma_k}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ValueError(f"global_fraction must be in [0, 1], got {self.global_fraction}")


# AlertReport.to_json's line, keys sorted as json.dumps sorts them; only
# exact ints go through %d
_LINE = (
    '{"broken_edges":[%s],"edges_checked":%d,"edges_skipped_stale":%d,'
    '"epoch":%d,"global_alert":%s,"node_alerts":[%s]}'
)


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
        """The report as one canonical JSON line: sorted keys, no spaces,
        byte for byte json.dumps(obj, sort_keys=True, separators=(",", ":")).

        The line is written directly when every value is one the writer can
        vouch for: exactly an int in the int fields (epoch, counts, node and
        edge ids), a finite float as each deviation and a bool as
        global_alert, written as int.__repr__, float.__repr__ and
        true/false, as json writes them. Any other value (a NaN or infinite
        deviation, a numpy scalar, a bool in an int field) sends the whole
        report through json.dumps, so its bytes, or its error, are json's.
        """
        alerts = list(self.node_alerts)
        broken = [[eid, dev] for eid, dev in self.broken_edges]
        head = [self.edges_checked, self.edges_skipped_stale, self.epoch]
        if (
            type(self.global_alert) is bool
            and all(type(v) is int for v in head + alerts)
            and all(
                type(eid) is int and type(dev) is float and math.isfinite(dev)
                for eid, dev in broken
            )
        ):
            edges = ",".join([f"[{eid},{dev!r}]" for eid, dev in broken])
            flag = "true" if self.global_alert else "false"
            return _LINE % (edges, *head, flag, ",".join(map(str, alerts)))
        obj = {
            "epoch": self.epoch,
            "node_alerts": alerts,
            "broken_edges": broken,
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


def tick_kernel(
    g: CointGraph,
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> tuple[AlertReport, np.ndarray, np.ndarray, np.ndarray]:
    """One tick's checks as one pass over edge and node arrays; the same
    results, bit for bit, as the per-node reference in tests/oracle.py.

    Node state is read from g.node_source and edges from g.columns; on a
    version no tick has priced every check is skipped. Returns the epoch
    report, the ids of the nodes that evaluated at least one check, their
    new alerted flags, and the rows of g.columns of the broken edges,
    ascending (the report's broken_edges in order). No node object is
    built, unless health_fn reads g.nodes.

    Deviations are computed over every edge, stale ones included, and only
    the checked edges' are read. The evaluated nodes are read from the
    columns' incidence index (graph.Incidence), as each node of the paper's
    vertex-centric job reads its own neighbourhood: one logical_or.reduceat
    of the checked flags over every node's segment. The index is built once
    per columns object and carried by graph._patch, so no tick sorts.

    A quiet tick (no checked edge fails) does no alert bookkeeping: its
    report has no node alert and no broken edge, and its flags are all
    False, or under latch_alerts the evaluated nodes' previous flags.

    Raises:
        ZeroSigma: a checked edge has resid_std <= 0.
    """
    nodes = g.node_source
    columns = g.columns
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

    # a node evaluated a check iff one of its edges was checked: one OR
    # over each node's incidence segment; a node without an edge has none
    index = columns.incidence
    evaluated = np.zeros(g.n_nodes, dtype=bool)
    evaluated[index.nodes] = np.logical_or.reduceat(checked[index.rows], index.starts)
    ids = np.flatnonzero(evaluated)
    if len(failing):
        alerted = np.zeros(g.n_nodes, dtype=bool)
        alerted[src[failing]] = True
        alerted[dst[failing]] = True
        node_alerts = tuple(np.flatnonzero(alerted).tolist())
        broken = tuple(zip(columns.eid[failing].tolist(), deviation[failing].tolist()))
        flags = alerted[ids]
    else:
        # a quiet tick alerts no node
        node_alerts = broken = ()
        flags = np.zeros(len(ids), dtype=bool)

    # each edge is scheduled once per endpoint
    edges_checked = 2 * int(np.count_nonzero(checked))
    skipped = 2 * g.n_edges - edges_checked
    report = AlertReport(epoch, node_alerts, broken, False, edges_checked, skipped)
    if global_reduce(g, report, config, health_fn):
        report = AlertReport(epoch, node_alerts, broken, True, edges_checked, skipped)

    if config.latch_alerts:
        flags |= nodes.alerted[ids]
    return report, ids, flags, failing


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

    An edge whose refit meets the admission rule gets the new model (broken
    flag cleared); one that does not is removed from the graph. Edges not
    listed are left untouched (same rows, same bytes).

    The window is held as the tick stream holds its history (_History), and
    must be aligned as that history must: every series of one window id and
    length, symbols the graph lacks included. The broken ids are looked up
    in one pass and refit as the tick's are (_History.refit), on the window
    as given. Outcomes, OLS fields and errors are those of one coint_fit
    per edge in edge-id order; pvalue and adf_stat agree with it to
    rounding.

    Raises:
        MisalignedCalendar: the window's series differ in window id or
            length; raised before any id is looked up or any edge fitted.
        UnknownEdge: a broken id is not an edge of g.
        InsufficientWindow: the window lacks an endpoint's symbol, or is
            too short to fit.
        Whatever else coint_fit raises, except DegeneratePair,
            DegenerateRegressor, SingularDesign and NonFiniteFit: a pair
            with zero residual spread, a constant source, residuals whose
            ADF design is rank-deficient (a window that repeats one price
            long enough) or a fit that overflows carries no testable leash,
            so the edge is removed.
    """
    window = list(window)
    history = _History(window, g)
    rows, invalid = g.columns._lookup(sorted(set(broken)))
    # an empty window fits nothing, so its id is never read
    out = history.refit(g, rows, window[0].window_id if window else "", config)
    # an id that is not an edge raises once the edges before it are fitted,
    # as one coint_fit per edge in id order would
    if invalid is not None:
        raise invalid
    return out


class _History:
    """A price window for selective refits: the tick stream's trailing
    history, or the window cointwatch recompute is given.

    One float64 row per graph symbol the supplied window holds (refits
    touch edge endpoints only), and each graph node's row in it (rows, -1
    for a node the window lacks; a symbol listed twice keeps its last row),
    resolved once. An empty window has length 0 and no rows. Under a tick
    stream the columns form a ring: column `start` holds the oldest price,
    and the one before it the newest. A tick first makes its column
    (column), refits its broken edges on the window with that column
    appended (refit), and only once it publishes overwrites the oldest
    column with it (push), so a tick costs O(symbols) and a failed tick
    leaves the history as it was.

    Raises:
        MisalignedCalendar: the window's series differ in window id or
            length (coint.check_aligned).
    """

    def __init__(self, window: Sequence[PriceSeries], g: CointGraph):
        self.length = 0
        if window:
            check_aligned(window)
            self.length = len(window[0])
        kept = [p for p in window if p.symbol in g.symbol_ids]
        self.symbols = [p.symbol for p in kept]
        node_ids = [g.symbol_ids[p.symbol] for p in kept]
        self.node_ids = np.array(node_ids, dtype=np.intp)
        by_node = {nid: row for row, nid in enumerate(node_ids)}
        self.rows = np.full(g.n_nodes, -1, dtype=np.intp)
        self.rows[list(by_node)] = list(by_node.values())
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

    def refit(
        self,
        g: CointGraph,
        rows: np.ndarray,
        window_id: str,
        config: AlertConfig,
        column: np.ndarray | None = None,
    ) -> tuple[CointGraph, RecomputeSummary]:
        """Refit the edges at rows (ascending) on the window, and publish
        the outcome as one column patch (graph._patch).

        Given a tick's column, the window is the trailing one as it will be
        once the column is pushed. The rows of the edges' distinct
        endpoints, oldest price first, form one block, and edge r is the
        pair of its src and dst rows in it; the edges are fitted together
        (coint.fit_pairs). A PriceSeries of window_id is built only for the
        rows of an edge fit_pairs declines, which coint_fit decides in row
        order. An edge is refit when its model meets the admission rule
        (coint.admits) at config.epsilon; it is removed otherwise, and when
        coint_fit finds no testable leash (DegeneratePair,
        DegenerateRegressor, SingularDesign, NonFiniteFit).

        Raises:
            InsufficientWindow: the window lacks an endpoint's symbol,
                naming the first such symbol in edge order (src before dst)
                once the edges before its edge are fitted; or coint_fit
                finds the window too short (TooShort).
            Whatever else coint_fit raises on a declined edge.
        """
        columns = g.columns
        src, dst = self.rows[columns.src[rows]], self.rows[columns.dst[rows]]
        lacking = np.flatnonzero((src < 0) | (dst < 0))
        missing = None
        if len(lacking):
            edge = int(lacking[0])
            node = columns.src[rows[edge]] if src[edge] < 0 else columns.dst[rows[edge]]
            missing = InsufficientWindow(f"window does not cover symbol {g.symbol(node)!r}")
            rows, src, dst = rows[:edge], src[:edge], dst[:edge]
        # np.unique would do, but its first call imports numpy.ma (~1 MB)
        sources = np.flatnonzero(np.bincount(np.concatenate((src, dst))))
        src, dst = sources.searchsorted(src), sources.searchsorted(dst)
        block = self.prices[sources]
        if column is not None and self.length:
            block[:, self.start] = column[sources]
            # oldest first: the columns after the overwritten one, then the
            # rest up to the new column
            split = self.start + 1
            block = np.concatenate((block[:, split:], block[:, :split]), axis=1)

        fields, ok = fit_pairs(block, src, dst)
        for r in np.flatnonzero(~ok).tolist():
            x = PriceSeries(self.symbols[sources[src[r]]], block[src[r]], window_id)
            y = PriceSeries(self.symbols[sources[dst[r]]], block[dst[r]], window_id)
            try:
                model = coint_fit(x, y)
            except TooShort as exc:
                raise InsufficientWindow(f"{x.symbol}->{y.symbol}: {exc}") from exc
            except (DegeneratePair, DegenerateRegressor, SingularDesign, NonFiniteFit):
                continue
            fields[r] = [getattr(model, name) for name in ScanResult.FIELDS]
            ok[r] = True
        if missing is not None:
            raise missing
        refit = ok & admits(fields, config.epsilon)
        eids = columns.eid[rows]
        models = dict(zip(ScanResult.FIELDS, fields[refit].T), window_id=window_id, broken=False)
        out = graphmod._patch(g, rows[refit], models, rows[~refit])
        return out, RecomputeSummary(tuple(eids[refit].tolist()), tuple(eids[~refit].tolist()))


class TickStream:
    """The alertness pipeline over an ordered tick stream, also exported
    as tick_loop: one AlertReport per tick, in order, and the whole run
    deterministic for fixed inputs, config and seeds. A failing tick aborts
    iteration with the epoch number in the diagnostic. .graph tracks the
    latest published graph version (refits and removals included).

    Ticks run through tick_kernel over the edge columns of the latest
    version. A tick with breaks publishes new columns (the edges marked
    broken, or under onbreak refit or removed); one without passes the same
    columns object on.

    Node state lives only in .graph's graph.NodeSnapshot, which starts on
    a log of its own (NodeSnapshot.branch). Each tick prices it with
    graph.update_prices and publishes new alert flags and one log entry; no
    tick builds a SymbolNode. A tick is any mapping of symbol -> price: the
    graph.TickRow views of pipeline.load_ticks are priced from their file's
    matrix by array gathers, a dict entry by entry, with the same reports
    and the same errors. An unknown symbol is reported when its tick runs,
    at that tick's epoch, not when the file is read. A failed tick
    publishes nothing, appends nothing to the log and leaves
    last_recompute as it was.

    Under the onbreak policy the price history is kept as a trailing
    window (_History), advanced by every tick that publishes; a failed tick
    leaves it as it was. A tick with breaks refits them from the window's
    rows (_History.refit) and publishes the refits and removals as one
    column patch. A history whose series differ in window id or length
    raises MisalignedCalendar here. With recompute off the history is
    ignored.
    """

    def __init__(
        self,
        g: CointGraph,
        ticks: Iterable[Mapping[str, float]],
        config: AlertConfig,
        recompute_policy: str = RECOMPUTE_OFF,
        history: Sequence[PriceSeries] | None = None,
        health_fn: HealthFn | None = None,
    ):
        if recompute_policy not in (RECOMPUTE_OFF, RECOMPUTE_ON_BREAK):
            raise ValueError(f"unknown recompute policy {recompute_policy!r}")
        self.graph = CointGraph(g.node_source.branch(), g.columns, g.epoch)
        self.config = config
        self.policy = recompute_policy
        self.health_fn = health_fn
        self.last_recompute: RecomputeSummary | None = None
        self._ticks = iter(ticks)
        # only refits read the history, so with recompute off none is kept
        self._history = (
            _History(history, g) if history and recompute_policy == RECOMPUTE_ON_BREAK else None
        )

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
        g = graphmod.update_prices(self.graph, tick)
        report, evaluated, flags, broken = tick_kernel(g, self.config, self.health_fn)

        column = None if self._history is None else self._history.column(g.node_source.price)
        summary = None
        if self.policy == RECOMPUTE_ON_BREAK and len(broken):
            if self._history is None:
                raise InsufficientWindow(
                    "recompute policy is on but no price history window was provided"
                )
            # each broken edge is refit, which clears its flag, or removed,
            # so none is marked broken first
            wid = f"trailing-{self._history.length}@{g.epoch}"
            g, summary = self._history.refit(g, broken, wid, self.config, column)
        elif len(broken):
            g = graphmod._patch(g, broken, {"broken": True})

        # published last, so a failed tick leaves the stream, its log and
        # its history as they were
        nodes = g.node_source.evaluated(g.epoch, evaluated, flags)
        if column is not None:
            self._history.push(column)
        self.graph = CointGraph(nodes, g.columns, g.epoch)
        self.last_recompute = summary
        return report


tick_loop = TickStream
