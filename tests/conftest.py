"""Shared builders for seeded scenario tests."""

import numpy as np
import pytest

from cointwatch import stats, synth
from cointwatch.coint import CointModel, PairResult, fit_pairs
from cointwatch.graph import build_graph

from oracle import is_fresh


def planted_instance(seed, n_clusters=2, cluster_size=4, n_independent=0, n_days=250):
    """Planted multi-cluster graph plus an in-band baseline tick."""
    universe = synth.planted_universe(
        n_clusters=n_clusters,
        cluster_size=cluster_size,
        n_independent=n_independent,
        n_days=n_days,
        seed=seed,
    )
    window = synth.universe_series(universe.table)
    g = synth.planted_graph(window.series, universe.clusters)
    fallback = {s.symbol: float(s.values[-1]) for s in window.series}
    base = synth.baseline_tick(g, fallback)
    return g, base, window.series


def residual_statistics(s, lags):
    """stats.adf_pair_batch on each row of the 2-d array s as a residual
    series, u = s - 0 - 0*s: its moment matrix is its own design's Gram
    matrix. Returns (statistics, ok)."""
    moments = stats.adf_designs(s, lags)[1]
    zero = np.zeros(len(s))
    return stats.adf_pair_batch(moments, moments, moments.gram, zero, zero)


def batch_models(pairs):
    """Each (x, y) pair's model from one fit_pairs call over the pairs'
    distinct series, each stacked once (as selective_recompute stacks
    them), or None where the batch declines the pair."""
    stack = {}
    for pair in pairs:
        for p in pair:
            stack.setdefault(p.symbol, p)
    if not stack:
        return []
    row = {symbol: r for r, symbol in enumerate(stack)}
    fields, ok = fit_pairs(
        np.array([p.values for p in stack.values()]),
        [row[x.symbol] for x, _ in pairs],
        [row[y.symbol] for _, y in pairs],
    )
    return [
        CointModel(*model, window_id=x.window_id) if good else None
        for (x, _), model, good in zip(pairs, fields.tolist(), ok.tolist())
    ]


def dummy_model(resid_std=1.0, beta0=0.0, beta1=1.0, pvalue=0.01):
    return CointModel(
        beta0=beta0,
        beta1=beta1,
        resid_mean=0.0,
        resid_std=resid_std,
        pvalue=pvalue,
        adf_stat=-5.0,
        window_id="test",
    )


def random_graph(seed, n_nodes=12, n_edges=20):
    """Random topology with placeholder models (graph-structure tests)."""
    rng = np.random.default_rng(seed)
    symbols = [f"S{i:02d}" for i in range(n_nodes)]
    pairs = set()
    while len(pairs) < n_edges:
        i, j = rng.integers(0, n_nodes, size=2)
        if i != j:
            pairs.add((int(i), int(j)))
    results = [
        PairResult(
            symbols[i],
            symbols[j],
            dummy_model(resid_std=float(rng.uniform(0.5, 2.0))),
            admitted=True,
        )
        for i, j in sorted(pairs)
    ]
    return build_graph(results, epsilon=1.0, symbols=symbols)


def sequential_broken_oracle(g, sigma_k):
    """Independent full scan: leash-check every edge whose endpoints are
    both fresh, straight off the graph, no vertex machinery."""
    from cointwatch.alert import leash_check

    broken = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        if not (is_fresh(g, e.src) and is_fresh(g, e.dst)):
            continue
        x_price = g.nodes[e.src].last_price
        y_price = g.nodes[e.dst].last_price
        alert, dev = leash_check(e.model, x_price, y_price, sigma_k)
        if alert:
            broken[eid] = dev
    return broken


@pytest.fixture(scope="session")
def small_planted():
    return planted_instance(seed=7, n_clusters=2, cluster_size=4)
