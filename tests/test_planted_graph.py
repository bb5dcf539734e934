"""synth.planted_graph against the per-pair loop it replaced.

planted_graph fits each cluster with one scan (scan_pairs). The per-pair
loop below is the oracle: the graph must keep its topology, edge ids, leash
fields and baseline tick bit for bit, its pvalue/adf_stat must agree to
rounding and equal the bits the batch kernel gives the same pair, and
planted_graph must raise exactly when the loop raises. The loop checks each
cluster's members before fitting it, as planted_graph does: an unknown or
repeated member is an UnknownSymbol or ValueError naming the cluster, not
the loop's bare KeyError or build_graph's DuplicateEdge, and planted_graph
raises the same error. A fit error the loop meets in cluster k is, in
planted_graph, the scan's MisalignedCalendar where the cluster's members
are misaligned, and otherwise a ScenarioError naming cluster k, a pair of
it and the scan's reason for that pair, which is coint_fit's own error.
Misaligned members raise before any fit, so the loop's error there may be
another pair's.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointwatch import synth
from cointwatch.coint import PairResult, PriceSeries, coint_fit
from cointwatch.errors import (
    CointwatchError,
    DegeneratePair,
    MisalignedCalendar,
    ScenarioError,
    UnknownSymbol,
)
from cointwatch.graph import build_graph

from conftest import batch_models

LEASH_FIELDS = ("beta0", "beta1", "resid_mean", "resid_std")
CLUSTER_SIZE = 6


def oracle_planted_graph(series, clusters):
    """One coint_fit per ordered within-cluster pair, in cluster order; a
    fit error leaves with the cluster's index as its `cluster`."""
    by_symbol = {p.symbol: p for p in series}
    results = []
    for k, cluster in enumerate(clusters):
        for i, symbol in enumerate(cluster):
            if symbol not in by_symbol:
                raise UnknownSymbol(f"cluster {k}: symbol {symbol!r} is not in the series")
            if symbol in cluster[:i]:
                raise ValueError(f"cluster {k}: symbol {symbol!r} appears more than once")
        for src in cluster:
            for dst in cluster:
                if src == dst:
                    continue
                try:
                    model = coint_fit(by_symbol[src], by_symbol[dst])
                except DegeneratePair:
                    continue
                except CointwatchError as exc:
                    exc.cluster = k
                    raise
                results.append(PairResult(src, dst, model, admitted=True))
    return build_graph(results, epsilon=1.0, symbols=[p.symbol for p in series])


def outcome(fn, *args):
    """(result, None) or (None, the error)."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return None, exc


def assert_raises_as_the_loop(got, want, series, clusters):
    """planted_graph's error got against the loop's error want."""
    if not hasattr(want, "cluster"):  # a member check: the same error
        assert (type(got), str(got)) == (type(want), str(want))
        return
    members = [p for p in series if p.symbol in clusters[want.cluster]]
    if len({(p.window_id, len(p)) for p in members}) > 1:  # misaligned
        assert type(got) is MisalignedCalendar
        return
    assert type(got) is ScenarioError, (got, want)
    prefix = f"cluster {want.cluster}: pair "
    assert str(got).startswith(prefix), (got, want)
    pair, reason = str(got)[len(prefix):].split(": ", 1)
    x, y = (next(p for p in members if p.symbol == s) for s in pair.split("->"))
    with pytest.raises(CointwatchError) as raised:
        coint_fit(x, y)
    assert reason == f"{type(raised.value).__name__}: {raised.value}"


def tampered(series, symbol, tamper):
    """The series with one symbol's prices made to trip a fit or the scan."""
    by_symbol = {p.symbol: p for p in series}
    p = by_symbol[symbol]
    first = series[0]
    if tamper == "short":  # one day fewer than the others
        by_symbol[symbol] = PriceSeries(symbol, p.values[:-1], p.window_id)
    elif tamper == "window":  # same length, another window
        by_symbol[symbol] = PriceSeries(symbol, p.values, "other")
    elif tamper == "copy":  # an exact copy of another member: a degenerate pair
        by_symbol[symbol] = PriceSeries(symbol, first.values, p.window_id)
    elif tamper == "flat":  # a constant regressor
        by_symbol[symbol] = PriceSeries(symbol, np.full(len(p), 100.0), p.window_id)
    elif tamper == "missing":  # a cluster member outside the universe
        del by_symbol[symbol]
    return [by_symbol[s.symbol] for s in series if s.symbol in by_symbol]


def assert_same_graph(series, clusters):
    want, want_error = outcome(oracle_planted_graph, series, clusters)
    got, got_error = outcome(synth.planted_graph, series, clusters)
    assert (got_error is None) == (want_error is None), (got_error, want_error)
    if want_error:
        assert_raises_as_the_loop(got_error, want_error, series, clusters)
        return
    w, g = want.columns, got.columns
    for name in ("eid", "src", "dst") + LEASH_FIELDS:
        np.testing.assert_array_equal(getattr(g, name), getattr(w, name), err_msg=name)
    for name in ("pvalue", "adf_stat"):
        np.testing.assert_allclose(getattr(g, name), getattr(w, name), rtol=1e-9, atol=0,
                                   err_msg=name)

    # the bits the batch kernel (or coint_fit, where it declines) gives each pair
    by_symbol = {p.symbol: p for p in series}
    pairs = [(by_symbol[got.nodes[s].symbol], by_symbol[got.nodes[d].symbol])
             for s, d in zip(g.src.tolist(), g.dst.tolist())]
    for (x, y), batched, pvalue, adf_stat in zip(
        pairs, batch_models(pairs), g.pvalue.tolist(), g.adf_stat.tolist()
    ):
        model = batched or coint_fit(x, y)
        assert (pvalue, adf_stat) == (model.pvalue, model.adf_stat), (x.symbol, y.symbol)

    fallback = {p.symbol: float(p.values[-1]) for p in series}
    assert outcome(synth.baseline_tick, got, fallback) == outcome(
        synth.baseline_tick, want, fallback
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_days=st.integers(3, 300),
    members=st.lists(
        st.lists(st.integers(0, CLUSTER_SIZE - 1), max_size=CLUSTER_SIZE, unique=True),
        min_size=1, max_size=4,
    ),
    tamper=st.sampled_from([None, None, None, "short", "window", "copy", "flat", "missing"]),
)
# a symbol repeated inside a cluster: a ValueError naming the cluster
@example(seed=1, n_days=250, members=[[0, 1, 1]], tamper=None)
# members of different lengths: the loop raises LengthMismatch, the scan's
# alignment check MisalignedCalendar
@example(seed=1, n_days=250, members=[[0, 1, 2]], tamper="short")
# members of different windows: both raise MisalignedCalendar, the loop's
# message names the pair
@example(seed=1, n_days=250, members=[[0, 1, 2]], tamper="window")
# a constant member: the loop raises DegenerateRegressor, planted_graph a
# ScenarioError naming the pair; members out of symbol order
@example(seed=1, n_days=250, members=[[2, 1, 0]], tamper="flat")
@example(seed=1, n_days=250, members=[[0, 1, 2]], tamper="copy")
@example(seed=1, n_days=250, members=[[0, 1, 2]], tamper="flat")
@example(seed=1, n_days=250, members=[[0, 1, 2]], tamper="missing")
@example(seed=1, n_days=250, members=[[1], [], [1, 1]], tamper="missing")
@example(seed=2, n_days=5, members=[[0, 1, 2, 3]], tamper=None)
@example(seed=3, n_days=3, members=[[0, 1]], tamper=None)
def test_planted_graph_matches_the_per_pair_loop(seed, n_days, members, tamper):
    universe = synth.planted_universe(
        n_clusters=len(members), cluster_size=CLUSTER_SIZE, n_independent=2,
        n_days=n_days, seed=seed,
    )
    series = synth.universe_series(universe.table).series
    clusters = [[universe.clusters[c][i] for i in idx] for c, idx in enumerate(members)]
    if tamper is not None:
        series = tampered(series, universe.clusters[0][1], tamper)
    assert_same_graph(series, clusters)


def test_an_overflowing_cluster_raises_as_the_loop_does():
    # prices near the float64 limit: the spread of C0S00 -> C0S01's
    # residuals and every pair with C0S02 overflow (NonFiniteFit). The scan
    # lists them as skipped, and planted_graph raises a ScenarioError naming
    # one of them where the per-pair loop raises NonFiniteFit.
    universe = synth.planted_universe(n_clusters=1, cluster_size=3, n_independent=0, seed=1)
    series = list(synth.universe_series(universe.table).series)
    series[1] = PriceSeries(series[1].symbol, series[1].values * 1e300, series[1].window_id)
    series[2] = PriceSeries(series[2].symbol, series[2].values * 1e305, series[2].window_id)
    assert_same_graph(series, universe.clusters)
    series[1] = synth.universe_series(universe.table).series[1]
    with pytest.raises(ScenarioError, match=r"^cluster 0: pair C0S0\d->C0S0\d: NonFiniteFit: "):
        synth.planted_graph(series, universe.clusters)


@pytest.mark.parametrize(
    "clusters, error, message",
    [
        ([["C0S00", "C0S01"], ["C1S00", "NOPE"]], UnknownSymbol,
         "cluster 1: symbol 'NOPE' is not in the series"),
        ([["C0S00", "C0S01", "C0S00"]], ValueError,
         "cluster 0: symbol 'C0S00' appears more than once"),
        # the first bad member in cluster order decides
        ([["C0S01", "C0S01", "NOPE"]], ValueError,
         "cluster 0: symbol 'C0S01' appears more than once"),
    ],
)
def test_a_bad_cluster_member_is_named(clusters, error, message):
    universe = synth.planted_universe(n_clusters=2, cluster_size=2, n_independent=0, seed=1)
    series = synth.universe_series(universe.table).series
    with pytest.raises(error) as raised:
        synth.planted_graph(series, clusters)
    assert str(raised.value) == message


def test_planted_graph_keeps_every_within_cluster_pair():
    universe = synth.planted_universe(n_clusters=3, cluster_size=5, n_independent=3, seed=4)
    series = synth.universe_series(universe.table).series
    g = synth.planted_graph(series, universe.clusters)
    assert g.n_edges == 3 * 5 * 4
    assert_same_graph(series, universe.clusters)
