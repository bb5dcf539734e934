"""Refits as arrays against the list-of-series path they replaced.

Under --recompute onbreak a tick refits its broken edges from rows of the
history ring, stacked once, and publishes refits and removals as one column
patch; cointwatch recompute holds its window as the same history and calls
the same refit. The oracle is the earlier composition, kept below
verbatim: a ring that materialises one PriceSeries per endpoint
(_History.window), followed by a selective_recompute that looks each id up
alone, restacks those series and publishes through replace_models and
remove_edges. Reports, last_recompute, exported graph bytes, and the class
and message of every error must be the same. A window whose series differ
in window id or length, which the oracle fits edge by edge, is instead
rejected with check_aligned's error.
"""

import re
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import alert, synth
from cointwatch import graph as graphmod
from cointwatch.alert import (
    RECOMPUTE_ON_BREAK,
    AlertConfig,
    AlertReport,
    RecomputeSummary,
    tick_kernel,
)
from cointwatch.coint import (
    CointModel,
    PairResult,
    PriceSeries,
    check_aligned,
    coint_fit,
    fit_pairs,
)
from cointwatch.errors import (
    CointwatchError,
    DegeneratePair,
    DegenerateRegressor,
    InsufficientWindow,
    MisalignedCalendar,
    NonFiniteFit,
    SingularDesign,
    TooShort,
    UnknownEdge,
)
from cointwatch.graph import CointGraph, build_graph

from conftest import dummy_model, planted_instance
from oracle import replace_models

# The oracle, as it stood before refits became arrays.


def selective_recompute(
    g: CointGraph,
    broken: Iterable[int],
    window: Sequence[PriceSeries],
    config: AlertConfig,
) -> tuple[CointGraph, RecomputeSummary]:
    """Refit only the broken edges on the supplied window.

    An edge whose refit clears pvalue < epsilon gets the new model (broken
    flag cleared); one that does not is removed from the graph. Edges not
    listed are left untouched (same rows, same bytes).

    Each broken id is looked up once. The distinct endpoint series are
    stacked once, however many broken edges share them, and every broken
    edge is fitted over that stack as one index pair (coint.fit_pairs); an
    edge the batch cannot vouch for is fitted by coint_fit alone. Endpoint
    series that differ in window id or length are not stacked: every edge
    then goes to coint_fit. Outcomes, OLS fields and errors are those of one
    coint_fit per edge in edge-id order; pvalue and adf_stat agree with it
    to rounding.

    Raises:
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
    by_symbol = {p.symbol: p for p in window}
    rows: dict[str, int] = {}  # each endpoint symbol's row of the stacked window
    eids: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    invalid = None
    columns = g.columns
    try:
        for eid in sorted(set(broken)):
            (row,) = columns.rows([eid])
            symbols = (g.symbol(columns.src[row]), g.symbol(columns.dst[row]))
            for sym in symbols:
                if sym not in by_symbol:
                    raise InsufficientWindow(f"window does not cover symbol {sym!r}")
            eids.append(eid)
            src.append(rows.setdefault(symbols[0], len(rows)))
            dst.append(rows.setdefault(symbols[1], len(rows)))
    except (UnknownEdge, InsufficientWindow) as exc:
        # raised once the edges before it are fitted, as one coint_fit per
        # edge in id order would
        invalid = exc
    series = [by_symbol[sym] for sym in rows]
    ok = [False] * len(eids)
    # one window: every endpoint series shares one window id and length
    if len({(p.window_id, len(p)) for p in series}) == 1:
        fields, ok = fit_pairs(np.array([p.values for p in series]), src, dst)
        fields, ok = fields.tolist(), ok.tolist()
    refits: dict[int, CointModel] = {}
    removed: list[int] = []
    for r, eid in enumerate(eids):
        x, y = series[src[r]], series[dst[r]]
        if ok[r]:
            model = CointModel(*fields[r], window_id=x.window_id)
        else:
            try:
                model = coint_fit(x, y)
            except TooShort as exc:
                raise InsufficientWindow(f"{x.symbol}->{y.symbol}: {exc}") from exc
            except (DegeneratePair, DegenerateRegressor, SingularDesign, NonFiniteFit):
                removed.append(eid)
                continue
        if model.pvalue < config.epsilon:
            refits[eid] = model
        else:
            removed.append(eid)
    if invalid is not None:
        raise invalid
    out = graphmod.remove_edges(replace_models(g, refits), removed)
    return out, RecomputeSummary(refitted=tuple(refits), removed=tuple(removed))


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


class OracleStream(alert.TickStream):
    """TickStream with the oracle's history and refit."""

    def __init__(self, g, ticks, config, history):
        super().__init__(g, ticks, config, RECOMPUTE_ON_BREAK, history=history)
        if self._history is not None:
            self._history = _History(history, g)

    def _step(self, tick: Mapping[str, float]) -> AlertReport:
        g = graphmod.update_prices(self.graph, tick)
        priced, epoch = g.node_source, g.epoch
        report, evaluated, flags, _ = tick_kernel(g, self.config, self.health_fn)

        broken_ids = [eid for eid, _ in report.broken_edges]
        column = None if self._history is None else self._history.column(priced.price)
        summary = None
        if self.policy == RECOMPUTE_ON_BREAK and broken_ids:
            if self._history is None:
                raise InsufficientWindow(
                    "recompute policy is on but no price history window was provided"
                )
            rows = g.columns.rows(broken_ids)
            endpoints = g.columns.src[rows].tolist() + g.columns.dst[rows].tolist()
            window = self._history.window(epoch, endpoints, column)
            # each broken edge is refit, which clears its flag, or removed,
            # so none is marked broken first
            g, summary = selective_recompute(g, broken_ids, window, self.config)
        else:
            g = graphmod.mark_broken(g, broken_ids)

        # published last, so a failed tick leaves the stream, its log and
        # its history as they were
        nodes = priced.evaluated(epoch, evaluated, flags)
        if column is not None:
            self._history.push(column)
        self.graph = CointGraph(nodes, g.columns, epoch)
        self.last_recompute = summary
        return report


# The tests.

# (seed, clusters, cluster size, independents)
PLANTED = [(400, 2, 4, 1), (401, 3, 3, 0), (402, 2, 5, 2)]


@pytest.fixture(scope="module")
def planted():
    return [
        planted_instance(seed, n_clusters=c, cluster_size=s, n_independent=k)
        for seed, c, s, k in PLANTED
    ]


def replay(stream, ticks):
    """Per tick its report line and repr(last_recompute), or the class and
    message of the error that ended the run; then the last graph's bytes."""
    out = []
    for _ in ticks:
        try:
            line = next(stream).to_json()
        except CointwatchError as exc:
            out.append((type(exc), str(exc)))
            break
        out.append((line, repr(stream.last_recompute)))
    return out, graphmod.export(stream.graph)


def assert_same_run(g, ticks, config, history):
    want = replay(OracleStream(g, iter(ticks), config, history), ticks)
    got = replay(alert.tick_loop(g, iter(ticks), config, RECOMPUTE_ON_BREAK, history), ticks)
    assert got == want
    return got[0]


def trailing(series, length):
    return [PriceSeries(p.symbol, p.values[len(p) - length :], p.window_id) for p in series]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    epsilon=st.sampled_from([0.05, 0.5]),
    latch=st.booleans(),
    length=st.sampled_from([0, 3, 6, 12, 40, 120, 250]),
)
def test_array_refits_match_the_series_path(planted, data, epsilon, latch, length):
    g, base, series = data.draw(st.sampled_from(planted))
    history = trailing(series, length)
    symbols = [n.symbol for n in g.nodes]
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    # a history that lacks a symbol, lists one twice (its later copy
    # counts) or holds symbols the graph lacks
    dropped = data.draw(st.none() | st.sampled_from(wired))
    history = [p for p in history if p.symbol != dropped]
    for k in data.draw(st.lists(st.integers(0, len(history) - 1), max_size=2, unique=True)):
        p = history[k]
        history.append(PriceSeries(p.symbol, p.values[::-1] * 1.5, p.window_id))
    for k in range(data.draw(st.integers(0, 2))):
        history.append(PriceSeries(f"EXTRA{k}", history[k].values * 2.0, history[k].window_id))
    ticks = []
    for _ in range(data.draw(st.integers(1, 6))):
        tick = dict(base)
        # shocks on several symbols at once break many edges in one tick
        for symbol in data.draw(st.lists(st.sampled_from(wired), max_size=4, unique=True)):
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=data.draw(st.floats(0.0, 12.0)))
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols) // 2))
        ticks.append({s: p for s, p in tick.items() if s not in stale})
    assert_same_run(g, ticks, AlertConfig(epsilon=epsilon, latch_alerts=latch), history)


def recompute_outcome(fn, g, broken, window, config):
    try:
        out, summary = fn(g, broken, window, config)
    except CointwatchError as exc:
        return type(exc), str(exc)
    return graphmod.export(out), repr(summary)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    length=st.sampled_from([3, 6, 40, 250]),
    defect=st.sampled_from([None, "short", "elsewhere"]),
)
def test_recompute_matches_the_series_path(planted, data, length, defect):
    g, _, series = data.draw(st.sampled_from(planted))
    window = trailing(series, length)
    k = data.draw(st.integers(0, len(window) - 1))
    if defect == "short":
        window[k] = PriceSeries(window[k].symbol, window[k].values[1:], window[k].window_id)
    elif defect == "elsewhere":
        window[k] = PriceSeries(window[k].symbol, window[k].values, "elsewhere")
    window = data.draw(st.permutations(window))
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    dropped = data.draw(st.none() | st.sampled_from(wired))
    window = [p for p in window if p.symbol != dropped]
    # refits clear the broken flags the graph carries
    g = graphmod.mark_broken(g, data.draw(st.sets(st.sampled_from(sorted(g.edges)))))
    ids = sorted(g.edges) + [max(g.edges) + 1, -1]
    broken = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)))
    config = AlertConfig(epsilon=0.5)
    got = recompute_outcome(alert.selective_recompute, g, broken, window, config)
    try:
        check_aligned(window)
    except MisalignedCalendar as exc:
        # a dropped symbol can realign the window; one still misaligned is
        # rejected before any id is looked up
        assert got == (MisalignedCalendar, str(exc))
        return
    assert got == recompute_outcome(selective_recompute, g, broken, window, config)


def pair_graph(pairs, models):
    """A graph of the given (src, dst) symbol pairs, ids in pair order."""
    symbols = sorted({s for pair in pairs for s in pair})
    results = [PairResult(a, b, m, admitted=True) for (a, b), m in zip(pairs, models)]
    g = build_graph(results, epsilon=1.0, symbols=symbols)
    ids = {(g.symbol(e.src), g.symbol(e.dst)): e.id for e in g.edges.values()}
    assert [ids[pair] for pair in pairs] == sorted(ids.values())
    return g


@pytest.mark.parametrize(
    "broken, error",
    [(["C->D", "unknown"], InsufficientWindow), (["A->B", -1, "C->D"], UnknownEdge)],
)
def test_the_first_invalid_id_in_id_order_wins(broken, error):
    rng = np.random.default_rng(21)
    g = pair_graph([("A", "B"), ("C", "D")], [dummy_model()] * 2)
    ids = {"A->B": 0, "C->D": 1, "unknown": 2}
    broken = [ids.get(eid, eid) for eid in broken]
    window = [PriceSeries(s, walk(rng, 120), "w") for s in "ABC"]
    config = AlertConfig(epsilon=0.5)
    outcome = recompute_outcome(alert.selective_recompute, g, broken, window, config)
    assert outcome == recompute_outcome(selective_recompute, g, broken, window, config)
    assert outcome[0] is error


def walk(rng, n, start=100.0):
    return start + np.cumsum(rng.standard_normal(n))


@pytest.mark.parametrize(
    "length, message",
    [
        (3, "A->B: need at least 4 samples to pick a lag order, got 3"),
        (120, "window does not cover symbol 'D'"),
    ],
)
def test_a_history_that_lacks_an_endpoint_symbol(length, message):
    # A->B is fitted before the missing D is reached, so a window too
    # short for A->B wins
    rng = np.random.default_rng(20)
    g = pair_graph([("A", "B"), ("C", "D")], [dummy_model()] * 2)
    history = [PriceSeries(s, walk(rng, length), "w") for s in "ABC"]
    tick = {"A": 100.0, "B": 110.0, "C": 100.0, "D": 110.0}
    (outcome,) = assert_same_run(g, [tick], AlertConfig(), history)
    assert outcome == (InsufficientWindow, f"tick for epoch 1 failed: {message}")


@pytest.mark.parametrize("length", [0, 2, 3])
def test_a_window_too_short_to_fit(planted, length):
    g, base, series = planted[0]
    shocked, expected = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=8.0)
    assert expected
    (outcome,) = assert_same_run(g, [shocked], AlertConfig(), trailing(series, length))
    assert outcome[0] is InsufficientWindow
    assert re.fullmatch(r"tick for epoch 1 failed: \S+->\S+: need at least \d samples.*", outcome[1])


def test_no_history_at_all(planted):
    g, base, _ = planted[0]
    shocked, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=8.0)
    (outcome,) = assert_same_run(g, [shocked], AlertConfig(), [])
    assert outcome[0] is InsufficientWindow


def one_edge_run(x, y, tick, beta0=0.0, epsilon=0.5):
    """X->Y over a history of x and y, then one tick that breaks the edge;
    returns the run's outcome and the refit window."""
    g = pair_graph([("X", "Y")], [dummy_model(beta0=beta0)])
    history = [PriceSeries("X", x, "w"), PriceSeries("Y", y, "w")]
    (outcome,) = assert_same_run(g, [tick], AlertConfig(epsilon=epsilon), history)
    window = [
        PriceSeries(p.symbol, np.append(p.values[1:], tick[p.symbol]), f"trailing-{len(x)}@1")
        for p in history
    ]
    return outcome, window


def test_a_window_that_repeats_one_price_removes_the_edge():
    rng = np.random.default_rng(11)
    x, y = (np.maximum.accumulate(np.concatenate([walk(rng, 10), np.zeros(110)])) for _ in "XY")
    tick = {"X": x[-1], "Y": y[-1]}
    outcome, window = one_edge_run(x, y, tick, beta0=y[-1] - x[-1] + 10.0)
    with pytest.raises(SingularDesign):
        coint_fit(*window)
    assert outcome[1] == repr(RecomputeSummary(removed=(0,)))


def test_a_constant_source_removes_the_edge():
    rng = np.random.default_rng(9)
    k, w = np.full(120, 42.0), walk(rng, 120)
    tick = {"X": 42.0, "Y": w[-1]}
    outcome, window = one_edge_run(k, w, tick, beta0=w[-1] - 42.0 + 10.0)
    with pytest.raises(DegenerateRegressor):
        coint_fit(*window)
    assert outcome[1] == repr(RecomputeSummary(removed=(0,)))


def test_a_symbol_listed_twice_refits_on_its_later_series(planted):
    g, base, series = planted[0]
    shocked, expected = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=8.0)
    src = g.symbol(g.edges[expected[0]].src)
    history = trailing(series, 120)
    (first,) = [p for p in history if p.symbol == src]
    later = PriceSeries(src, first.values[::-1], first.window_id)
    config = AlertConfig(epsilon=0.5)
    twice = assert_same_run(g, [shocked], config, [*history, later])
    once = assert_same_run(g, [shocked], config, [p for p in history if p is not first] + [later])
    assert twice == once
    assert twice != assert_same_run(g, [shocked], config, history)


def test_a_row_fit_pairs_declines_is_fitted_by_coint_fit(monkeypatch):
    # a residual spread of ~1e-4 puts the row's ADF design past the batch's
    # trust limit
    rng = np.random.default_rng(4)
    x = walk(rng, 250, start=200.0)
    y = 7.0 + 0.5 * x + 1e-4 * rng.standard_normal(250)
    tick = {"X": x[-1] + 0.5, "Y": 7.0 + 0.5 * (x[-1] + 0.5)}
    calls = []

    def counted(a, b, lags=None):
        calls.append((a.symbol, b.symbol))
        return coint_fit(a, b, lags)

    monkeypatch.setattr(alert, "coint_fit", counted)
    outcome, window = one_edge_run(x, y, tick)
    _, ok = fit_pairs(np.array([p.values for p in window]), [0], [1])
    assert not ok[0]
    assert calls == [("X", "Y")]
    assert outcome[1] == repr(RecomputeSummary(refitted=(0,)))
    g = pair_graph([("X", "Y")], [dummy_model()])
    stream = alert.tick_loop(g, [tick], AlertConfig(epsilon=0.5), RECOMPUTE_ON_BREAK,
                             [PriceSeries("X", x, "w"), PriceSeries("Y", y, "w")])
    next(stream)
    assert stream.graph.edges[0].model == coint_fit(*window)
