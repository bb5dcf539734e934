"""Graph versions published by tick_loop hold node arrays and a log length.

TickStream keeps node state as arrays plus an append-only alert log, and
each version it publishes builds its SymbolNode tuple only when read. The
oracle is the tuple-backed loop oracle.replay: oracle.update_prices,
reference_tick, with_nodes and mark_broken, with onbreak refits over a
list-based trailing window. Every published version, read after the run
has moved on, must equal the oracle's graph at its epoch; no tick may build
a node; bad prices fail on the stream as they do in graph.update_prices.
"""

import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import RECOMPUTE_OFF, RECOMPUTE_ON_BREAK, AlertConfig, tick_loop
from cointwatch.coint import PriceSeries
from cointwatch.errors import CointwatchError
from cointwatch.graph import ALERTED, CLEAR, SymbolNode, update_prices
from cointwatch.pipeline import loads_graph

import oracle
from conftest import planted_instance

# (seed, clusters, cluster size, independents)
PLANTED = [(400, 2, 4, 1), (401, 3, 3, 0)]


def oracle_versions(g, ticks, config, history=None):
    """The tuple-backed graph after each tick; with a history, broken edges
    are refit on a list-based trailing window (stale symbols carried)."""
    return [version for _, _, version in oracle.replay(g, ticks, config, history)]


def draw_ticks(data, g, base, count, max_sigmas):
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    symbols = [n.symbol for n in g.nodes]
    ticks = []
    for _ in range(count):
        tick = dict(base)
        for symbol in data.draw(st.lists(st.sampled_from(wired), max_size=2, unique=True)):
            sigmas = data.draw(st.floats(0.0, max_sigmas))
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=sigmas)
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols) // 2))
        ticks.append({s: p for s, p in tick.items() if s not in stale})
    return ticks


def assert_same_nodes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(SymbolNode):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert (type(x), x) == (type(y), y), (a.id, f.name)


@pytest.fixture(scope="module")
def planted():
    return [
        planted_instance(seed, n_clusters=c, cluster_size=s, n_independent=k)
        for seed, c, s, k in PLANTED
    ]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), epsilon=st.sampled_from([0.05, 0.5]))
def test_versions_stay_immutable(planted, data, epsilon):
    g, base, series = data.draw(st.sampled_from(planted))
    history = [PriceSeries(p.symbol, p.values[-120:], p.window_id) for p in series]
    ticks = draw_ticks(data, g, base, data.draw(st.integers(2, 6)), 12.0)
    config = AlertConfig(epsilon=epsilon, latch_alerts=True)

    stream = tick_loop(g, ticks, config, RECOMPUTE_ON_BREAK, history=history)
    kept = [stream.graph]
    for _ in stream:
        kept.append(stream.graph)
    # read only now, after every later tick has run
    want = [g] + oracle_versions(g, ticks, config, history)
    assert [v.epoch for v in kept] == [w.epoch for w in want]
    for got, expected in zip(kept, want):
        assert graphmod.export(got) == graphmod.export(expected)


def test_versions_stay_immutable_through_refits_and_removals(planted):
    # a 10-sigma shock, then calm ticks with the shocked symbol stale
    g, base, series = planted[1]
    history = [PriceSeries(p.symbol, p.values[-120:], p.window_id) for p in series]
    symbol = g.nodes[0].symbol
    shocked, _ = synth.shock_tick(g, base, symbol, sigmas=10.0)
    calm = {s: p for s, p in base.items() if s != symbol}
    ticks = [base, shocked, shocked, calm, base, shocked]
    config = AlertConfig(latch_alerts=True)
    stream = tick_loop(g, ticks, config, RECOMPUTE_ON_BREAK, history=history)
    kept, refits, removals = [], 0, 0
    for _ in stream:
        kept.append(stream.graph)
        if stream.last_recompute is not None:
            refits += len(stream.last_recompute.refitted)
            removals += len(stream.last_recompute.removed)
    assert refits and removals
    for got, expected in zip(kept, oracle_versions(g, ticks, config, history)):
        assert graphmod.export(got) == graphmod.export(expected)


def loaded_with_history(g, base, ticks, config):
    """g after an oracle run, saved and loaded: nodes that carry history,
    alert states and integer prices, as a file may hold them."""
    obj = json.loads(graphmod.export(oracle_versions(g, ticks, config)[-1]))
    for node in obj["nodes"]:
        if node["last_price"] is not None:
            node["last_price"] = math.ceil(node["last_price"])
    return loads_graph(json.dumps(obj))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    latch=st.booleans(),
    start=st.sampled_from(["fresh", "loaded", "published"]),
)
def test_lazy_nodes_equal_tuple_built(planted, data, latch, start):
    built, base, _ = data.draw(st.sampled_from(planted))
    config = AlertConfig(latch_alerts=latch)
    g = built
    if start == "loaded":
        g = loaded_with_history(built, base, draw_ticks(data, built, base, 3, 8.0), config)
    elif start == "published":
        # a version an earlier stream published
        earlier_ticks = draw_ticks(data, built, base, 3, 8.0)
        earlier = oracle_versions(built, earlier_ticks, config)[-1]
        stream = tick_loop(built, earlier_ticks, config)
        for _ in stream:
            pass
        g = stream.graph
    ticks = draw_ticks(data, built, base, data.draw(st.integers(1, 5)), 8.0)

    stream = tick_loop(g, ticks, config, RECOMPUTE_OFF)
    kept = [stream.graph for _ in stream]
    for got, want in zip(kept, oracle_versions(g, ticks, config)):
        assert_same_nodes(got.nodes, want.nodes)
        assert got == want
    if start == "published":
        # read again after a second stream ran from it
        assert_same_nodes(g.nodes, earlier.nodes)


def test_a_tick_builds_no_nodes(planted, monkeypatch):
    g, base, series = planted[0]
    history = [PriceSeries(p.symbol, p.values[-120:], p.window_id) for p in series]
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    ticks = []
    for t in range(200):
        tick = synth.jittered_tick(g, base, seed=t)
        if t % 25 == 7:
            tick, _ = synth.shock_tick(g, tick, wired[t % len(wired)], sigmas=8.0)
        ticks.append({s: p for k, (s, p) in enumerate(tick.items()) if (k + t) % 5})
    built = []
    init = SymbolNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymbolNode, "__init__", counting_init)
    for policy in (RECOMPUTE_OFF, RECOMPUTE_ON_BREAK):
        stream = tick_loop(g, ticks, AlertConfig(latch_alerts=True), policy, history=history)
        recomputes = 0
        for report in stream:
            report.to_json()
            recomputes += stream.last_recompute is not None
        assert stream.graph.epoch == 200
        assert built == []
    assert recomputes
    assert len(stream.graph.nodes) == g.n_nodes
    assert len(built) == g.n_nodes


def test_histories_hold_one_run_per_stretch_of_one_state(planted):
    g, base, _ = planted[0]
    wired = {n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]}
    ticks = [synth.jittered_tick(g, base, seed=t) for t in range(30)]
    ticks[9], _ = synth.shock_tick(g, ticks[9], min(wired), sigmas=8.0)
    stream = tick_loop(g, ticks, AlertConfig())
    reports = list(stream)
    shocked = set(reports[9].node_alerts)
    assert shocked and not any(r.node_alerts for k, r in enumerate(reports) if k != 9)
    # 30 evaluated epochs, one state change each way: three runs, not 30 entries
    for n in stream.graph.nodes:
        if n.id in shocked:
            assert n.alert_history == ((1, 9, CLEAR), (10, 1, ALERTED), (11, 20, CLEAR))
        elif n.symbol in wired:
            assert n.alert_history == ((1, 30, CLEAR),)
        else:
            assert n.alert_history == ()


@pytest.mark.parametrize(
    "symbol, price",
    [("NOPE", 1.0), (None, True), (None, 0.0), (None, float("nan"))],
    ids=["unknown symbol", "True", "zero", "nan"],
)
def test_bad_prices_fail_on_the_stream_as_in_update_prices(small_planted, symbol, price):
    g, base, _ = small_planted
    tick = dict(base)
    tick[symbol or g.nodes[1].symbol] = price
    with pytest.raises(CointwatchError) as direct:
        update_prices(g, tick)
    message = f"tick for epoch {g.epoch + 1} failed: {direct.value}"
    with pytest.raises(CointwatchError, match=f"^{re.escape(message)}$") as streamed:
        list(tick_loop(g, [tick], AlertConfig()))
    assert type(streamed.value) is type(direct.value)
