"""The columnar tick kernel against the per-node reference.

tick_loop runs every tick through tick_kernel; oracle.replay runs the same
ticks through oracle.reference_tick, a plain loop over nodes (each node's
AlertVertexProgram.compute fed its neighbours' prices by
price_broadcast_messages, then assemble_report). Both must publish the
same report bytes and the same node versions, tick after tick.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import alert, synth
from cointwatch import graph as graphmod
from cointwatch.alert import AlertConfig, tick_loop
from cointwatch.coint import PairResult
from cointwatch.errors import ZeroSigma
from cointwatch.graph import build_graph, update_prices

import scenarios
from conftest import dummy_model, planted_instance
from oracle import reference_tick, replace_models, replay

# (seed, clusters, cluster size); every within-cluster ordered pair is an
# edge, so each pair of symbols is wired both ways
PLANTED = [(100, 2, 4), (101, 3, 4), (102, 2, 6)]


def odd_broken_count(g, report, config):
    """A health policy that reads the report, not the alerted fraction."""
    return len(report.broken_edges) % 2 == 1


def always_global(g, report, config):
    """A health policy that declares a global alert on every tick, quiet
    ones included."""
    return True


def oracle_loop(g, ticks, config, health_fn=None):
    """Replay ticks through the reference path; returns (report lines,
    final graph)."""
    lines = []
    for report, _, g in replay(g, ticks, config, health_fn=health_fn):
        lines.append(report.to_json())
    return lines, g


def assert_equivalent(g, ticks, config, health_fn=None):
    stream = tick_loop(g, ticks, config, health_fn=health_fn)
    reports = list(stream)
    for report in reports:
        assert report.edges_checked + report.edges_skipped_stale == 2 * g.n_edges
    expected_lines, expected_graph = oracle_loop(g, ticks, config, health_fn)
    assert [r.to_json() for r in reports] == expected_lines
    for got, want in zip(stream.graph.nodes, expected_graph.nodes):
        assert (got.alert_state, got.alert_history) == (want.alert_state, want.alert_history)
    assert graphmod.export(stream.graph) == graphmod.export(expected_graph)
    return reports


@pytest.fixture(scope="module")
def planted():
    return [planted_instance(seed, n_clusters=c, cluster_size=s)[:2] for seed, c, s in PLANTED]


configs = st.builds(
    AlertConfig,
    sigma_k=st.sampled_from([1.0, 2.5, 3.0, 4.0]),
    latch_alerts=st.booleans(),
)
health_fns = st.sampled_from([None, odd_broken_count, always_global])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), config=configs, health_fn=health_fns)
def test_planted_ticks_match_oracle(planted, data, config, health_fn):
    g, base = data.draw(st.sampled_from(planted))
    symbols = [n.symbol for n in g.nodes]
    ticks = []
    for _ in range(data.draw(st.integers(1, 4))):
        tick = dict(base)
        for symbol in data.draw(st.lists(st.sampled_from(symbols), max_size=3, unique=True)):
            sigmas = data.draw(st.floats(0.0, 8.0))
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=sigmas)
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols)))
        ticks.append({s: p for s, p in tick.items() if s not in stale})
    assert_equivalent(g, ticks, config, health_fn)


prices = st.floats(0.5, 200.0)


@st.composite
def random_graphs(draw):
    """Random topology (reverse pairs likely) with arbitrary models."""
    n = draw(st.integers(2, 7))
    symbols = [f"S{i}" for i in range(n)]
    ordered = [(a, b) for a in range(n) for b in range(n) if a != b]
    pairs = draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=16, unique=True))
    results = [
        PairResult(
            symbols[a],
            symbols[b],
            dummy_model(
                beta0=draw(st.floats(-50.0, 50.0)),
                beta1=draw(st.floats(-3.0, 3.0)),
                resid_std=draw(st.floats(0.01, 40.0)),
            ),
            admitted=True,
        )
        for a, b in sorted(pairs)
    ]
    return build_graph(results, epsilon=1.0, symbols=symbols)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=random_graphs(), config=configs, health_fn=health_fns)
def test_random_graphs_match_oracle(data, g, config, health_fn):
    symbols = [n.symbol for n in g.nodes]
    ticks = [
        data.draw(st.dictionaries(st.sampled_from(symbols), prices))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    assert_equivalent(g, ticks, config, health_fn)


def two_node_graph():
    # B = 1 + 2*A with sigma 0.5
    return build_graph(
        [PairResult("A", "B", dummy_model(beta0=1.0, beta1=2.0, resid_std=0.5), admitted=True)],
        1.0,
        ["A", "B"],
    )


def test_exactly_sigma_k_is_quiet():
    # 22.5 - (1 + 2*10) = 1.5 = 3 sigma exactly
    (report,) = assert_equivalent(two_node_graph(), [{"A": 10.0, "B": 22.5}], AlertConfig())
    assert report.broken_edges == ()
    assert report.node_alerts == ()
    assert report.edges_checked == 2


def test_zero_sigma_edge_raises_on_both_paths():
    g = replace_models(two_node_graph(), {0: dummy_model(resid_std=0.0)})
    tick = {"A": 10.0, "B": 22.5}
    with pytest.raises(ZeroSigma):
        list(tick_loop(g, [tick], AlertConfig()))
    with pytest.raises(ZeroSigma):
        reference_tick(update_prices(g, tick), AlertConfig())


def test_zero_sigma_edge_with_a_stale_endpoint_is_skipped():
    g = replace_models(two_node_graph(), {0: dummy_model(resid_std=0.0)})
    (report,) = assert_equivalent(g, [{"A": 10.0}], AlertConfig())
    assert report.edges_skipped_stale == 2


@pytest.mark.parametrize(
    "scenario, outcome",
    [
        (scenarios.transient_scenario(seed=11), "refitted"),
        (scenarios.regime_break_scenario(seed=3), "removed"),
    ],
    ids=["refit", "removal"],
)
def test_ticks_after_a_refit_see_the_new_edges(scenario, outcome):
    g = scenarios.pair_graph(scenario.fit_x, scenario.fit_y)
    config = AlertConfig()
    stream = tick_loop(
        g,
        [scenario.tick, scenario.tick],
        config,
        recompute_policy=alert.RECOMPUTE_ON_BREAK,
        history=scenario.refit_window,
    )
    next(stream)
    assert getattr(stream.last_recompute, outcome) == (0,)
    after = stream.graph
    report = next(stream)
    _, expected = reference_tick(update_prices(after, scenario.tick), config)
    assert report.to_json() == expected.to_json()
    assert report.edges_checked + report.edges_skipped_stale == 2 * after.n_edges
