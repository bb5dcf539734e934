"""The batched selective_recompute against the per-edge coint_fit loop.

selective_recompute fits all broken edges at once: OLS row by row with
ols_fit's exact arithmetic, one stacked ADF solve, and coint_fit itself for
every row the batch cannot vouch for. per_edge_recompute, the loop it
replaced, is the oracle: the summaries, the OLS fields and every exception
must match exactly, the ADF statistic and p-value to rounding, and edges
not refit must stay as they were. A window whose series differ in window id
or length, which the loop would fit edge by edge, is rejected by both refit
callers before any fit, with check_aligned's error.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import alert, coint, stats, synth
from cointwatch import graph as graphmod
from cointwatch.alert import (
    RECOMPUTE_ON_BREAK,
    AlertConfig,
    RecomputeSummary,
    selective_recompute,
    tick_loop,
)
from cointwatch.coint import PairResult, PriceSeries, check_aligned, coint_fit, scan_pairs
from cointwatch.errors import (
    CointwatchError,
    DegeneratePair,
    DegenerateRegressor,
    InsufficientWindow,
    MisalignedCalendar,
    SingularDesign,
    TooShort,
)
from cointwatch.graph import audit_adjacency, build_graph

from conftest import dummy_model, planted_instance, residual_statistics
from oracle import replace_models

# (seed, clusters, cluster size, independents)
PLANTED = [(300, 2, 4, 1), (301, 3, 3, 0), (302, 2, 5, 2)]


def per_edge_recompute(g, broken, window, config):
    """One coint_fit call per broken edge, in edge-id order."""
    by_symbol = {p.symbol: p for p in window}
    refitted = []
    removed = []
    out = g
    for eid in sorted(set(broken)):
        if eid not in g.edges:
            raise CointwatchError(f"edge id {eid} is not in the graph")
        edge = g.edges[eid]
        src_sym = g.nodes[edge.src].symbol
        dst_sym = g.nodes[edge.dst].symbol
        for sym in (src_sym, dst_sym):
            if sym not in by_symbol:
                raise InsufficientWindow(f"window does not cover symbol {sym!r}")
        try:
            model = coint_fit(by_symbol[src_sym], by_symbol[dst_sym])
        except TooShort as exc:
            raise InsufficientWindow(f"{src_sym}->{dst_sym}: {exc}") from exc
        except (DegeneratePair, DegenerateRegressor, SingularDesign):
            removed.append(eid)
            continue
        if model.pvalue < config.epsilon:
            out = replace_models(out, {eid: model})
            refitted.append(eid)
        else:
            removed.append(eid)
    if removed:
        out = graphmod.remove_edges(out, removed)
    return out, RecomputeSummary(refitted=tuple(refitted), removed=tuple(removed))


def assert_matches_oracle(g, broken, window, config=AlertConfig()):
    """Run both paths; exceptions must match by class and message."""
    try:
        want_graph, want_summary = per_edge_recompute(g, broken, window, config)
    except CointwatchError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            selective_recompute(g, broken, window, config)
        return None
    got_graph, got_summary = selective_recompute(g, broken, window, config)
    assert got_summary == want_summary
    assert got_graph.nodes is g.nodes
    assert got_graph.edges.keys() == want_graph.edges.keys()
    assert (got_graph.out_edges, got_graph.in_edges) == (want_graph.out_edges, want_graph.in_edges)
    audit_adjacency(got_graph)
    for eid, want in want_graph.edges.items():
        got = got_graph.edges[eid]
        if eid not in got_summary.refitted:
            assert got == g.edges[eid]
            continue
        m, w = got.model, want.model
        assert (got.src, got.dst, got.broken) == (want.src, want.dst, want.broken)
        assert repr((m.beta0, m.beta1, m.resid_mean, m.resid_std, m.window_id)) == repr(
            (w.beta0, w.beta1, w.resid_mean, w.resid_std, w.window_id)
        )
        # a t-ratio near zero has no meaningful relative error
        assert m.adf_stat == pytest.approx(w.adf_stat, rel=1e-9, abs=1e-9)
        assert m.pvalue == pytest.approx(w.pvalue, rel=1e-9)
    return got_summary


def assert_rejected_before_any_fit(monkeypatch, g, broken, window):
    """Both refit callers, selective_recompute and an onbreak TickStream,
    raise check_aligned(window)'s class and message, and fit nothing."""
    with pytest.raises(MisalignedCalendar) as want:
        check_aligned(window)
    calls = []
    for name in ("fit_pairs", "coint_fit"):
        real = getattr(coint, name)
        monkeypatch.setattr(
            alert, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
        )
    message = f"^{re.escape(str(want.value))}$"
    with pytest.raises(MisalignedCalendar, match=message):
        selective_recompute(g, broken, window, AlertConfig(epsilon=0.5))
    tick = {g.symbol(n): 100.0 for n in range(g.n_nodes)}
    with pytest.raises(MisalignedCalendar, match=message):
        next(tick_loop(g, [tick], AlertConfig(epsilon=0.5), RECOMPUTE_ON_BREAK, window))
    assert calls == []


@pytest.fixture(scope="module")
def planted():
    return [
        planted_instance(seed, n_clusters=c, cluster_size=s, n_independent=k)
        for seed, c, s, k in PLANTED
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    epsilon=st.sampled_from([0.05, 0.5]),
    length=st.sampled_from([3, 6, 12, 40, 120, 250]),
    extras=st.integers(0, 2),
)
def test_batched_recompute_matches_per_edge_loop(planted, data, epsilon, length, extras):
    g, base, series = data.draw(st.sampled_from(planted))
    # a trailing window whose last days come from shocked ticks with stale
    # symbols carried forward, as the stream's history builds it
    columns = {p.symbol: list(p.values[-length:]) for p in series}
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    for _ in range(data.draw(st.integers(0, 3))):
        tick = dict(base)
        for symbol in data.draw(st.lists(st.sampled_from(wired), max_size=2, unique=True)):
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=data.draw(st.floats(0.0, 12.0)))
        stale = data.draw(st.sets(st.sampled_from(sorted(columns)), max_size=len(columns) // 2))
        for symbol, col in columns.items():
            col.append(col[-1] if symbol in stale else tick[symbol])
            del col[0]
    wid = f"trailing-{length}@w"
    window = [PriceSeries(symbol, col, wid) for symbol, col in columns.items()]
    # symbols the graph lacks ride along in the window
    window += [
        PriceSeries(f"EXTRA{k}", window[k].values * 1.5, wid) for k in range(extras)
    ]
    broken = data.draw(st.lists(st.sampled_from(sorted(g.edges)), max_size=len(g.edges)))
    assert_matches_oracle(g, broken, window, AlertConfig(epsilon=epsilon))


def test_three_sample_window(planted):
    g, _, series = planted[0]
    stubs = [PriceSeries(s.symbol, s.values[:3], "stub") for s in series]
    eid = sorted(g.edges)[0]
    edge = g.edges[eid]
    src, dst = g.nodes[edge.src].symbol, g.nodes[edge.dst].symbol
    message = f"{src}->{dst}: need at least 4 samples to pick a lag order, got 3"
    with pytest.raises(InsufficientWindow, match=f"^{re.escape(message)}$"):
        selective_recompute(g, [eid], stubs, AlertConfig())
    assert_matches_oracle(g, [eid], stubs)


def test_affine_pair_is_removed():
    # small integers keep the affine image exact: zero residual spread
    steps = np.random.default_rng(8).integers(-3, 4, 120)
    x = PriceSeries("X", 500.0 + np.cumsum(steps), "w")
    y = PriceSeries("Y", 1.0 + 2.0 * x.values, "w")
    z = PriceSeries("Z", 700.0 + np.cumsum(steps[::-1]), "w")
    results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in (("X", "Y"), ("Z", "Y"))]
    g = build_graph(results, epsilon=1.0, symbols=["X", "Y", "Z"])
    summary = assert_matches_oracle(g, [0, 1], [x, y, z], AlertConfig(epsilon=0.5))
    assert 0 in summary.removed


def test_ill_conditioned_row_equals_coint_fit():
    # a residual spread of ~1e-4 against the unit constant column puts the
    # ADF Gram matrix's condition number far above the batch's trust limit
    rng = np.random.default_rng(4)
    x = PriceSeries("X", 200.0 + np.cumsum(rng.standard_normal(250)), "w")
    y = PriceSeries("Y", 7.0 + 0.5 * x.values + 1e-4 * rng.standard_normal(250), "w")
    z = PriceSeries("Z", 90.0 + np.cumsum(rng.standard_normal(250)), "w")
    resid = stats.ols_fit(x.series, y.series).residuals.values
    _, ok = residual_statistics(resid[None, :], stats.default_lag(250))
    assert not ok[0]
    results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in (("X", "Y"), ("Z", "X"))]
    g = build_graph(results, epsilon=1.0, symbols=["X", "Y", "Z"])
    g2, summary = selective_recompute(g, [0, 1], [x, y, z], AlertConfig(epsilon=0.5))
    assert 0 in summary.refitted
    assert g2.edges[0].model == coint_fit(x, y)
    assert_matches_oracle(g, [0, 1], [x, y, z], AlertConfig(epsilon=0.5))


def test_a_window_of_two_calendars_fits_no_edge(monkeypatch):
    # each edge's endpoints share one window, but the window as a whole
    # spans two, of different lengths: nothing is fitted
    rng = np.random.default_rng(9)
    window = []
    for (a, b), n, window_id in ((("X", "Y"), 250, "w"), (("Z", "V"), 200, "v")):
        x = 200.0 + np.cumsum(rng.standard_normal(n))
        window += [PriceSeries(a, x, window_id),
                   PriceSeries(b, 7.0 + 0.5 * x + rng.standard_normal(n), window_id)]
    results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in (("X", "Y"), ("Z", "V"))]
    g = build_graph(results, epsilon=1.0, symbols=["V", "X", "Y", "Z"])
    assert_rejected_before_any_fit(monkeypatch, g, [0, 1], window)


def test_refit_on_the_build_window_reproduces_the_scan():
    universe = synth.planted_universe(n_clusters=2, cluster_size=4, n_independent=2,
                                      n_days=250, seed=12)
    series = synth.universe_series(universe.table).series
    g = build_graph(scan_pairs(series).pairs, 0.05, [p.symbol for p in series])
    assert g.n_edges > 0
    g2, summary = selective_recompute(g, list(g.edges), series, AlertConfig())
    assert summary == RecomputeSummary(refitted=tuple(sorted(g.edges)))
    for eid, edge in g.edges.items():
        assert repr(g2.edges[eid].model) == repr(edge.model)


def test_windows_of_two_lengths_and_a_misaligned_pair(planted, monkeypatch):
    g, _, series = planted[0]
    clusters = {}
    for edge in g.edges.values():
        clusters.setdefault(edge.src, set()).add(edge.dst)
    # symbols of one cluster get 120 days, the rest 250: every edge stays
    # within one length, but the window holds two
    first = min(clusters)
    short = {g.nodes[v].symbol for v in clusters[first] | {first}}
    window = [
        PriceSeries(p.symbol, p.values[-120:] if p.symbol in short else p.values, p.window_id)
        for p in series
    ]
    assert_rejected_before_any_fit(monkeypatch, g, list(g.edges), window)
    # one shortened symbol outside its cluster
    other = next(p for p in series if p.symbol not in short and g.symbol_ids[p.symbol] in clusters)
    window = [PriceSeries(p.symbol, p.values[-120:], p.window_id) if p is other else p
              for p in series]
    assert_rejected_before_any_fit(monkeypatch, g, list(g.edges), window)
    # one symbol from another window
    window = [PriceSeries(p.symbol, p.values, "elsewhere") if p is other else p for p in series]
    assert_rejected_before_any_fit(monkeypatch, g, list(g.edges), window)


def test_repeated_price_window_is_removed():
    # both symbols repeat one price over the last 110 of 120 days: the fit
    # itself is fine, but the residuals' early lagged differences are all
    # zero, so coint_fit raises SingularDesign and the edge is removed
    rng = np.random.default_rng(11)
    walks = [np.concatenate([100.0 + np.cumsum(rng.standard_normal(10)), np.zeros(110)])
             for _ in range(2)]
    window = [PriceSeries(s, np.maximum.accumulate(w), "w") for s, w in zip("XY", walks)]
    with pytest.raises(SingularDesign):
        coint_fit(*window)
    g = build_graph([PairResult("X", "Y", dummy_model(), admitted=True)], 1.0, ["X", "Y"])
    summary = assert_matches_oracle(g, [0], window, AlertConfig(epsilon=0.5))
    assert summary == RecomputeSummary(removed=(0,))


def test_constant_symbol_rows():
    # K never moves: as a source its row has sxx == 0 (coint_fit raises
    # DegenerateRegressor), as a destination zero residual spread; either
    # way the edge is removed
    rng = np.random.default_rng(9)
    walks = [PriceSeries(f"W{k}", 100.0 + np.cumsum(rng.standard_normal(120)), "w")
             for k in range(2)]
    window = walks + [PriceSeries("K", np.full(120, 42.0), "w")]
    pairs = [("W0", "W1"), ("W1", "K"), ("K", "W0")]
    results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in pairs]
    g = build_graph(results, epsilon=1.0, symbols=["W0", "W1", "K"])
    ids = {(g.nodes[e.src].symbol, g.nodes[e.dst].symbol): e.id for e in g.edges.values()}
    summary = assert_matches_oracle(
        g, [ids["W0", "W1"], ids["W1", "K"]], window, AlertConfig(epsilon=0.5)
    )
    assert ids["W1", "K"] in summary.removed
    summary = assert_matches_oracle(g, list(g.edges), window, AlertConfig(epsilon=0.5))
    assert {ids["W1", "K"], ids["K", "W0"]} <= set(summary.removed)


def abcd_instance(constant=False):
    """A->B and C->D over random walks of A, B, C and D (A constant if
    asked), one window of 120 days; returns (g, window, edge ids)."""
    rng = np.random.default_rng(10)
    walks = {s: 100.0 + np.cumsum(rng.standard_normal(120)) for s in "ABCD"}
    if constant:
        walks["A"] = np.full(120, 42.0)
    window = [PriceSeries(s, v, "w") for s, v in walks.items()]
    results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in (("A", "B"), ("C", "D"))]
    g = build_graph(results, epsilon=1.0, symbols=list("ABCD"))
    ids = {(g.nodes[e.src].symbol, g.nodes[e.dst].symbol): e.id for e in g.edges.values()}
    assert ids["A", "B"] < ids["C", "D"]
    return g, window, ids


@pytest.mark.parametrize("later", ["missing symbol", "unknown id"])
@pytest.mark.parametrize("defect, error", [("constant", DegenerateRegressor)])
def test_earlier_fit_error_wins_over_a_later_invalid_id(defect, error, later):
    # the per-edge loop fits edge A->B before it reaches the later id, so
    # A->B's fit error would be raised, not the later id's; but a constant
    # A's DegenerateRegressor removes A->B, and the later id's error is
    # raised
    g, window, ids = abcd_instance(constant=True)
    with pytest.raises(error):
        coint_fit(window[0], window[1])
    if later == "missing symbol":
        window = window[:3]
        broken = [ids["C", "D"], ids["A", "B"]]
    else:
        broken = [max(g.edges) + 1, ids["A", "B"]]
    wins = InsufficientWindow if later == "missing symbol" else CointwatchError
    with pytest.raises(wins):
        per_edge_recompute(g, broken, window, AlertConfig(epsilon=0.5))
    with pytest.raises(wins):
        selective_recompute(g, broken, window, AlertConfig(epsilon=0.5))
    assert_matches_oracle(g, broken, window, AlertConfig(epsilon=0.5))


@pytest.mark.parametrize("broken", ["missing symbol", "unknown id", "no id"])
@pytest.mark.parametrize("defect", ["short", "elsewhere", "short extra", "elsewhere extra"])
def test_a_misaligned_window_fits_nothing(monkeypatch, defect, broken):
    # B, or a symbol the graph lacks, is shorter than the rest or from
    # another window: that is raised before any id is looked up, whatever
    # the broken list holds
    g, window, ids = abcd_instance()
    bad = window[1]
    if defect.endswith("extra"):
        bad = PriceSeries("E", bad.values * 2.0, "w")
        window.append(bad)
    bad = (PriceSeries(bad.symbol, bad.values[-80:], "w") if defect.startswith("short")
           else PriceSeries(bad.symbol, bad.values, "elsewhere"))
    window = [bad if p.symbol == bad.symbol else p for p in window]
    if broken == "missing symbol":
        window = window[:3] + window[4:]
        broken = [ids["C", "D"], ids["A", "B"]]
    else:
        broken = [max(g.edges) + 1, ids["A", "B"]] if broken == "unknown id" else []
    assert_rejected_before_any_fit(monkeypatch, g, broken, window)


@pytest.mark.parametrize("broken", [[], [0], [1, 0], [7, 0], [-1]])
def test_an_empty_window(broken):
    # with ids, the first edge's source is missing; with none, nothing
    # changes
    g, _, _ = abcd_instance()
    assert_matches_oracle(g, broken, [])
    if not broken:
        out, summary = selective_recompute(g, broken, [], AlertConfig())
        assert out is g and summary == RecomputeSummary()
