"""synth.jittered_tick against the per-node loop it replaced.

The oracle walks the nodes in order: one uniform draw per node, the limit
taken over its incident edges, 0.5% of the price for a node without edges.
The array version must give the same tick, key order and float bits
included, on graphs with isolated nodes.
"""

import numpy as np
import pytest

from cointwatch import synth
from cointwatch.coint import PairResult
from cointwatch.graph import build_graph, neighbors

from conftest import dummy_model, planted_instance, random_graph

# (seed, clusters, cluster size, independents)
PLANTED = [(300, 2, 4, 0), (301, 3, 3, 2), (302, 1, 6, 4)]


def oracle_jittered_tick(g, base, seed, budget_sigmas=1.0):
    rng = np.random.default_rng(seed)
    tick = dict(base)
    for node in g.nodes:
        incident = neighbors(g, node.id)
        price = tick[node.symbol]
        if incident:
            limit = min(
                e.model.resid_std / max(synth._role_coefficient(e, node.id), 1e-12)
                for e, _ in incident
            )
            delta = rng.uniform(-1.0, 1.0) * 0.5 * budget_sigmas * limit
        else:
            delta = rng.uniform(-1.0, 1.0) * 0.005 * price
        tick[node.symbol] = price + delta
    return tick


def assert_same_tick(got, want):
    assert list(got) == list(want)
    assert [type(p) for p in got.values()] == [type(p) for p in want.values()]
    assert np.array_equal(
        np.array(list(got.values())).view(np.int64), np.array(list(want.values())).view(np.int64)
    )


@pytest.mark.parametrize("instance", PLANTED, ids=lambda p: f"seed{p[0]}")
@pytest.mark.parametrize("budget", [1.0, 0.25, 3.0])
def test_matches_the_per_node_loop(instance, budget):
    seed, clusters, size, independents = instance
    g, base, _ = planted_instance(
        seed, n_clusters=clusters, cluster_size=size, n_independent=independents
    )
    assert independents == 0 or any(not neighbors(g, n.id) for n in g.nodes)
    # a symbol the graph lacks keeps its place and price
    base = {"ZZZ": 5.0, **base}
    for tick_seed in range(20):
        got = synth.jittered_tick(g, base, seed=tick_seed, budget_sigmas=budget)
        assert_same_tick(got, oracle_jittered_tick(g, base, tick_seed, budget))


def sparse_graph(seed, n_nodes=14, n_edges=12):
    """Random topology whose models have |beta1| above and below 1 (and
    one of 0), so either role can set a node's limit; some nodes have only
    out- or only in-edges, and the last two none."""
    rng = np.random.default_rng(seed)
    symbols = [f"S{i:02d}" for i in range(n_nodes)]
    pairs = set()
    while len(pairs) < n_edges:
        i, j = rng.integers(0, n_nodes - 2, size=2)
        if i != j:
            pairs.add((int(i), int(j)))
    betas = [0.0, *rng.uniform(-3.0, 3.0, size=n_edges - 1)]
    results = [
        PairResult(
            symbols[i],
            symbols[j],
            dummy_model(resid_std=float(rng.uniform(0.5, 2.0)), beta1=float(beta)),
            admitted=True,
        )
        for (i, j), beta in zip(sorted(pairs), betas)
    ]
    return build_graph(results, epsilon=1.0, symbols=symbols)


@pytest.mark.parametrize("graph_seed", range(5))
def test_matches_on_random_topologies(graph_seed):
    g = sparse_graph(graph_seed)
    base = {n.symbol: 10.0 + n.id for n in g.nodes}
    for tick_seed in range(5):
        got = synth.jittered_tick(g, base, seed=tick_seed)
        assert_same_tick(got, oracle_jittered_tick(g, base, tick_seed))


def test_graph_without_edges():
    g = random_graph(0, n_nodes=3, n_edges=0)
    base = {n.symbol: 1.0 + n.id for n in g.nodes}
    assert_same_tick(synth.jittered_tick(g, base, seed=9), oracle_jittered_tick(g, base, 9))
