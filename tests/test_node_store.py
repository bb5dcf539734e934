"""Every graph version holds its nodes as one NodeSnapshot.

A built or loaded graph holds its nodes in a store with an empty log
(NodeSnapshot.of_nodes); update_prices and tick_loop price and publish
versions of it; a stream starts on a log of its own (NodeSnapshot.branch).
So the tick kernel reads any version, readers of symbols and ids build no
SymbolNode on a version however long its run, and every way of reaching a
version exports the same bytes as the unbroken run.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import AlertConfig, tick_kernel, tick_loop
from cointwatch.graph import ALERTED, NodeSnapshot, SymbolNode, export, update_prices
from cointwatch.pipeline import loads_graph

import oracle
from conftest import planted_instance

# (seed, clusters, cluster size, independents)
PLANTED = [(400, 2, 4, 1), (401, 3, 3, 0), (402, 2, 5, 2)]


@pytest.fixture(scope="module")
def planted():
    return [
        planted_instance(seed, n_clusters=c, cluster_size=s, n_independent=k)
        for seed, c, s, k in PLANTED
    ]


def stale_ticks(g, base, count, shock_every=0, seed=0):
    """count jittered ticks, every shock_every-th with an 8-sigma shock on
    one wired symbol, each with a seeded fifth of the symbols left stale."""
    wired = [s for s, nid in g.symbol_ids.items() if g.out_edges[nid] or g.in_edges[nid]]
    rng = np.random.default_rng(seed)
    ticks = []
    for t in range(count):
        tick = synth.jittered_tick(g, base, seed=seed + t)
        if shock_every and t % shock_every == shock_every - 1:
            tick, _ = synth.shock_tick(g, tick, wired[t % len(wired)], sigmas=8.0)
        stale = rng.random(len(tick)) < 0.2
        ticks.append({s: p for (s, p), drop in zip(tick.items(), stale) if not drop})
    return ticks


def run(g, ticks, config):
    """The versions a tick stream publishes, the start included."""
    stream = tick_loop(g, ticks, config)
    return [stream.graph] + [stream.graph for _ in stream]


# -- the tick kernel on a version no tick has priced --------------------------


def loaded_after_a_run(g, base):
    """g after five oracle ticks, saved and loaded: nodes fresh at its
    epoch, with alert states and histories."""
    ticks = stale_ticks(g, base, 5, shock_every=2)
    *_, (_, _, last) = oracle.replay(g, ticks, AlertConfig())
    return loads_graph(export(last).decode())


@pytest.mark.parametrize("start", ["built", "loaded", "loaded after a run"])
@pytest.mark.parametrize("latch", [False, True])
def test_tick_kernel_reads_a_version_no_tick_priced(planted, start, latch):
    g, base, _ = planted[0]
    if start == "loaded":
        g = loads_graph(export(g).decode())
    elif start == "loaded after a run":
        g = loaded_after_a_run(g, base)
    config = AlertConfig(latch_alerts=latch)
    report, ids, flags = tick_kernel(g, config)
    states, want = oracle.reference_tick(g, config)
    assert report == want
    evaluated = [s.node for s in states if s.evaluated]
    assert ids.tolist() == [n.id for n in evaluated]
    assert flags.tolist() == [n.alert_state == ALERTED for n in evaluated]
    assert report.edges_checked + report.edges_skipped_stale == 2 * g.n_edges
    if start != "loaded after a run":
        assert report.edges_checked == 0


# -- flat cost on long runs ---------------------------------------------------


def test_symbol_readers_build_no_nodes_on_a_long_run(planted, monkeypatch):
    g, base, series = planted[0]
    fallback = {p.symbol: float(p.values[-1]) for p in series}
    ticks = stale_ticks(g, base, 201, shock_every=25)
    stream = tick_loop(g, ticks[:200], AlertConfig())
    for _ in stream:
        pass
    published = stream.graph
    assert published.epoch == 200
    symbol = next(s for s, nid in published.symbol_ids.items() if published.out_edges[nid])
    built = []
    init = SymbolNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymbolNode, "__init__", counting_init)
    update_prices(published, ticks[200])
    next(tick_loop(published, ticks[200:], AlertConfig()))
    tick_kernel(published, AlertConfig())
    synth.baseline_tick(published, fallback)
    synth.jittered_tick(published, base, seed=1)
    synth.shock_tick(published, base, symbol, sigmas=6.0)
    synth.turbulent_tick(published, base, fraction=0.1)
    export(published, "dot")
    oracle.is_fresh(published, 0), published.symbol(0), published.node_id(symbol)
    assert built == []
    assert len(published.nodes) == published.n_nodes
    assert len(built) == published.n_nodes


# -- every way of reaching a version agrees -----------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), latch=st.booleans())
def test_every_way_of_reaching_a_version_agrees(planted, data, latch):
    g, base, _ = data.draw(st.sampled_from(planted))
    n = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(1, n - 1))
    ticks = stale_ticks(g, base, n, shock_every=data.draw(st.integers(0, 3)), seed=n + k)
    config = AlertConfig(latch_alerts=latch)
    versions = run(g, ticks, config)
    unbroken = [export(v) for v in versions]
    oracle_k = export(list(oracle.replay(g, ticks[:k], config))[-1][2])
    assert oracle_k == unbroken[k]

    # one stream paused at epoch k, and two more interleaved from its version
    first = tick_loop(g, ticks, config)
    for _ in range(k):
        next(first)
    middle = first.graph
    second, third = tick_loop(middle, ticks[k:], config), tick_loop(middle, ticks[k:], config)
    for j in range(k + 1, n + 1):
        next(second), next(third)
        assert export(second.graph) == export(third.graph) == unbroken[j]
    for _ in first:
        pass
    assert export(first.graph) == unbroken[n]

    # resumed from the version in memory, and from it saved and loaded
    for start in (middle, loads_graph(oracle_k.decode())):
        assert [export(v) for v in run(start, ticks[k:], config)] == unbroken[k:]

    # update_prices chains from it, against the node-by-node price update
    chain, want = middle, loads_graph(oracle_k.decode())
    for j, tick in enumerate(ticks[k:], k + 1):
        chain, want = update_prices(chain, tick), oracle.update_prices(want, tick)
        assert export(chain) == export(want)
        priced = update_prices(versions[j - 1], tick)
        assert tick_kernel(priced, config)[0] == oracle.reference_tick(priced, config)[1]

    # the version the others started from is as it was
    assert export(middle) == oracle_k
    assert middle.nodes == loads_graph(oracle_k.decode()).nodes


# -- the store's constructor --------------------------------------------------


@pytest.mark.parametrize("ids", [[1, 0, 2], [0, 1, 1], [0, 2, 3], [1, 2, 3]])
def test_of_nodes_rejects_ids_out_of_order(ids):
    nodes = [SymbolNode(id=i, symbol=f"S{k}") for k, i in enumerate(ids)]
    with pytest.raises(ValueError, match="ids"):
        NodeSnapshot.of_nodes(nodes)


def test_of_nodes_rejects_a_repeated_symbol():
    nodes = [SymbolNode(id=i, symbol=s) for i, s in enumerate(["A", "B", "A"])]
    with pytest.raises(ValueError, match="duplicate symbols"):
        NodeSnapshot.of_nodes(nodes)


def test_of_nodes_derives_symbol_ids_and_keeps_the_nodes():
    nodes = (
        SymbolNode(0, "A"),
        SymbolNode(1, "B", 7, ALERTED, ((1, 2, ALERTED),), 2),
        SymbolNode(2, "C", 1.5, last_update_epoch=1),
    )
    store = NodeSnapshot.of_nodes(nodes)
    assert store.symbol_ids == {"A": 0, "B": 1, "C": 2}
    assert store.nodes is nodes and store.log == [] and store.length == 0
    assert store.price[1:].tolist() == [7.0, 1.5] and np.isnan(store.price[0])
    assert store.updated.tolist() == [-1, 2, 1]
    assert store.alerted.tolist() == [False, True, False]
    no_edges = graphmod.EdgeColumns.of_lists(**dict.fromkeys(graphmod._DTYPES, ()))
    g = graphmod.CointGraph(store, no_edges, 2)
    assert g.symbol_ids is store.symbol_ids
    assert [oracle.is_fresh(g, i) for i in range(3)] == [False, True, False]
    # an int price is kept as the int it is, through a tick that leaves it stale
    priced = update_prices(g, {"C": 2.0})
    assert type(priced.nodes[1].last_price) is int
    assert json.loads(export(priced))["nodes"][1]["last_price"] == 7
