"""The per-node incidence index (graph.Incidence) against a fresh build,
and the adjacency and evaluated nodes derived from it against the code it
replaced.

EdgeColumns.incidence is built once per columns object, and graph._patch
carries it: shared by a patch that removes no row, patched by one that
does. After random sequences of mark_broken, removal patches and refit
patches, the carried index must equal one built afresh from the same
columns, the adjacency split from it must equal csr_oracle's (two stable
argsorts, one per direction) and the tick kernel's evaluated nodes must
equal the scatter of the checked edges' endpoints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch.alert import AlertConfig, tick_kernel
from cointwatch.coint import ScanResult
from cointwatch.graph import (
    EdgeColumns,
    Incidence,
    build_graph,
    mark_broken,
    remove_edges,
    update_prices,
)

from conftest import random_graph
from test_edge_store import shuffled
from test_graph import pair


def csr_oracle(ends, eid, n_nodes):
    """Per node id below n_nodes, the ids of the edges whose end it is,
    ascending."""
    order = np.argsort(ends, kind="stable")  # eid ascends within each node
    offsets = np.searchsorted(ends[order], np.arange(n_nodes + 1)).tolist()
    ids = eid[order].tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(offsets, offsets[1:]))


def evaluated_oracle(g, fresh):
    """The nodes at an end of an edge whose two ends are fresh."""
    c = g.columns
    checked = fresh[c.src] & fresh[c.dst]
    evaluated = np.zeros(g.n_nodes, dtype=bool)
    evaluated[c.src[checked]] = True
    evaluated[c.dst[checked]] = True
    return np.flatnonzero(evaluated).tolist()


def kernel_evaluated(g, fresh):
    """The ids tick_kernel gives as evaluated once the fresh nodes are priced."""
    tick = {g.symbol(v): 1.0 + v for v in np.flatnonzero(fresh).tolist()}
    _, ids, _ = tick_kernel(update_prices(g, tick), AlertConfig())
    return ids.tolist()


def fresh_index(columns):
    """The index of columns' arrays, built from nothing carried."""
    return EdgeColumns(**{name: getattr(columns, name) for name in graphmod._DTYPES}).incidence


def assert_same_index(got, want):
    for name, a, b in zip(Incidence._fields, got, want):
        assert a.tolist() == b.tolist(), name


def check(g, fresh):
    c, n = g.columns, g.n_nodes
    assert_same_index(c.incidence, fresh_index(c))
    assert c.adjacency(n) == (csr_oracle(c.src, c.eid, n), csr_oracle(c.dst, c.eid, n))
    assert kernel_evaluated(g, fresh) == evaluated_oracle(g, fresh)


def refit(g, refitted, removed, resid_std):
    """A refit tick's patch: new models at refitted, removed dropped."""
    models = dict.fromkeys(ScanResult.FIELDS, 0.5)
    models.update(resid_std=resid_std, window_id="refit", broken=False)
    return graphmod._patch(g, g.columns.rows(refitted), models, g.columns.rows(removed))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 50), n_nodes=st.integers(2, 9), sparse=st.booleans())
def test_the_carried_index_equals_a_fresh_build(data, seed, n_nodes, sparse):
    n_edges = data.draw(st.integers(0, min(14, n_nodes * (n_nodes - 1))))
    g = random_graph(seed, n_nodes, n_edges)
    if sparse:
        g = shuffled(g, seed)
    masks = st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes).map(np.array)
    check(g, data.draw(masks))
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["mark", "remove", "refit"]))
        ids = sorted(g.edges)
        chosen = data.draw(st.lists(st.sampled_from(ids), max_size=4)) if ids else []
        if kind == "mark":
            g2 = mark_broken(g, chosen)
        elif kind == "remove":
            # repeats allowed
            g2 = remove_edges(g, chosen)
        else:
            # a refit's rows and its removed rows are disjoint edges
            others = sorted(set(ids) - set(chosen))
            removed = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
            g2 = refit(g, sorted(set(chosen)), removed, data.draw(st.floats(0.1, 10.0)))
        # carried from g, not built on first read
        assert "incidence" in g2.columns.__dict__
        if g2.n_edges == g.n_edges:
            assert g2.columns.incidence is g.columns.incidence
        g = g2
        check(g, data.draw(masks))


def graph(symbols, pairs):
    return build_graph([pair(a, b) for a, b in pairs], 0.05, symbols)


def test_isolated_first_and_last_nodes_stay_unevaluated():
    # reduceat reads a segment of length 0 as one entry, so a node with no
    # edge must have no segment, at id 0 and at id n-1 alike
    g = graph(list("ABCDE"), [("B", "C"), ("C", "D"), ("D", "B")])
    assert g.columns.incidence.nodes.tolist() == [1, 2, 3]
    everyone = np.ones(5, dtype=bool)
    assert kernel_evaluated(g, everyone) == [1, 2, 3]
    check(g, everyone)


def test_a_graph_without_edges():
    g = graph(list("ABC"), [])
    index = g.columns.incidence
    assert [len(a) for a in index] == [0, 0, 0, 0]
    assert g.out_edges == g.in_edges == ((), (), ())
    priced = update_prices(g, {"A": 1.0, "B": 2.0, "C": 3.0})
    report, ids, flags = tick_kernel(priced, AlertConfig())
    assert ids.tolist() == flags.tolist() == []
    assert (report.edges_checked, report.edges_skipped_stale) == (0, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_node_stale(seed):
    g = random_graph(seed, n_nodes=6, n_edges=10)
    stale = np.zeros(6, dtype=bool)
    assert kernel_evaluated(g, stale) == []
    check(g, stale)


def test_a_removal_that_leaves_a_node_without_an_edge():
    g = graph(list("ABCD"), [("A", "B"), ("B", "C"), ("C", "B"), ("D", "C")])
    g.columns.incidence  # built, so the removal patches it
    ab = next(eid for eid, e in g.edges.items() if (e.src, e.dst) == (0, 1))
    dc = next(eid for eid, e in g.edges.items() if (e.src, e.dst) == (3, 2))
    g2 = remove_edges(g, [ab, dc])
    index = g2.columns.__dict__["incidence"]
    assert index.nodes.tolist() == [1, 2] and index.degree.tolist() == [2, 2]
    everyone = np.ones(4, dtype=bool)
    assert kernel_evaluated(g2, everyone) == [1, 2]
    check(g2, everyone)
    # the parent version keeps its own index
    assert g.columns.incidence.nodes.tolist() == [0, 1, 2, 3]
