"""The columnar edge store against the dict-backed store it replaced.

The oracle keeps a graph's edges as a dict of CointEdge objects and
derives each node's in/out edge-id tuples by a loop over the sorted ids;
its mutators are the ones the graph had before its edges became columns.
Random sequences of mark_broken, replace_models, remove_edges (repeated
ids, unknown ids, empty lists) and the refit patch that writes models and
drops rows in one step (graph._patch, as a replace then a remove) must
leave both stores with the same edges, adjacency and exported bytes, and
raise UnknownEdge alike; every earlier version must keep its bytes.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import AlertConfig, tick_loop
from cointwatch.coint import CointModel, ScanResult
from cointwatch.errors import UnknownEdge
from cointwatch.graph import (
    CointEdge,
    audit_adjacency,
    export,
    from_json_obj,
    mark_broken,
    remove_edges,
)

from conftest import random_graph
from oracle import replace_models, to_json_obj

UNKNOWN = (10**6, -7, 2**63, 2**70, -(2**70))


def oracle_adjacency(n_nodes, edges):
    out_lists = [[] for _ in range(n_nodes)]
    in_lists = [[] for _ in range(n_nodes)]
    for eid in sorted(edges):
        out_lists[edges[eid].src].append(eid)
        in_lists[edges[eid].dst].append(eid)
    return tuple(map(tuple, out_lists)), tuple(map(tuple, in_lists))


def oracle_check(edges, ids):
    for eid in ids:
        if eid not in edges:
            raise UnknownEdge(f"edge id {eid} is not in the graph")


def oracle_remove(edges, edge_ids):
    ids = list(edge_ids)
    oracle_check(edges, ids)
    out = dict(edges)
    for eid in set(ids):
        del out[eid]
    return out


def oracle_mark(edges, edge_ids):
    ids = set(edge_ids)
    oracle_check(edges, ids)
    out = dict(edges)
    for eid in ids:
        e = out[eid]
        out[eid] = CointEdge(e.id, e.src, e.dst, e.model, True)
    return out


def oracle_replace(edges, models):
    oracle_check(edges, models)
    out = dict(edges)
    for eid, model in models.items():
        e = out[eid]
        out[eid] = CointEdge(e.id, e.src, e.dst, model, False)
    return out


def patch(g, step):
    """graph._patch with refit models and removed ids turned into rows."""
    models, removed = step
    fields = (*ScanResult.FIELDS, "window_id")
    values = {name: [getattr(m, name) for m in models.values()] for name in fields}
    return graphmod._patch(
        g, g.columns.rows(models), dict(values, broken=False), g.columns.rows(removed)
    )


def oracle_patch(edges, step):
    models, removed = step
    return oracle_remove(oracle_replace(edges, models), removed)


def oracle_export(g, edges):
    def edge_obj(e):
        m = e.model
        model = {name: getattr(m, name) for name in (
            "beta0", "beta1", "resid_mean", "resid_std", "pvalue", "adf_stat", "window_id")}
        return {"id": e.id, "src": e.src, "dst": e.dst, "broken": e.broken, "model": model}

    obj = {"epoch": g.epoch, "nodes": to_json_obj(g)["nodes"],
           "edges": [edge_obj(edges[eid]) for eid in sorted(edges)]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def shuffled(g, seed):
    """g reloaded from JSON whose edges are listed in a shuffled order
    under sparse ids, negative ones among them."""
    obj = json.loads(export(g, "json"))
    rng = random.Random(seed)
    for e in obj["edges"]:
        e["id"] = e["id"] * 37 - 200
    rng.shuffle(obj["edges"])
    return from_json_obj(obj)


finite = st.floats(allow_nan=False, allow_infinity=False)
models = st.builds(CointModel, finite, finite, finite, finite, finite, finite, st.text(max_size=4))


@st.composite
def graphs_and_steps(draw):
    seed = draw(st.integers(0, 50))
    n_nodes = draw(st.integers(2, 9))
    g = random_graph(seed, n_nodes, n_edges=draw(st.integers(0, min(12, n_nodes * (n_nodes - 1)))))
    if draw(st.booleans()):
        g = shuffled(g, seed)
    ids = st.sampled_from(sorted(g.edges) + list(UNKNOWN)) if g.edges else st.sampled_from(UNKNOWN)
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["mark", "replace", "remove", "patch"]))
        # mostly known ids, so sequences reach deep; repeats allowed
        known = st.sampled_from(sorted(g.edges)) if g.edges else ids
        chosen = draw(st.lists(st.one_of(known, known, ids), max_size=4))
        if kind in ("replace", "patch"):
            chosen = {eid: draw(models) for eid in chosen}
        if kind == "patch":
            # a patch's refit and removed rows are disjoint edges
            others = sorted(set(g.edges) - set(chosen))
            chosen = (chosen, draw(st.lists(st.sampled_from(others), unique=True)) if others else [])
        steps.append((kind, chosen))
    return g, steps


MUTATORS = {"mark": (mark_broken, oracle_mark), "replace": (replace_models, oracle_replace),
            "remove": (remove_edges, oracle_remove), "patch": (patch, oracle_patch)}


@settings(max_examples=200, deadline=None)
@given(graphs_and_steps())
def test_mutators_match_the_dict_store(case):
    g, steps = case
    edges = dict(g.edges)
    assert (g.out_edges, g.in_edges) == oracle_adjacency(g.n_nodes, edges)
    versions = [(g, export(g, "json"))]
    for kind, ids in steps:
        mutate, oracle = MUTATORS[kind]
        try:
            want = oracle(edges, ids)
        except UnknownEdge:
            with pytest.raises(UnknownEdge) as err:
                mutate(g, ids)
            named = int(str(err.value).split()[2])
            assert named in ([*ids[0], *ids[1]] if kind == "patch" else ids) and named not in edges
            assert named not in g.edges
            continue
        g2 = mutate(g, ids)
        if not ids or ids == ({}, []):
            assert g2 is g
        g, edges = g2, want
        assert dict(g.edges) == edges
        assert list(g.edges) == sorted(edges)
        assert len(g.edges) == g.n_edges == len(edges)
        assert (g.out_edges, g.in_edges) == oracle_adjacency(g.n_nodes, edges)
        assert export(g, "json") == oracle_export(g, edges)
        assert audit_adjacency(g)
        versions.append((g, oracle_export(g, edges)))
    # no mutator wrote to an earlier version
    for version, data in versions:
        assert export(version, "json") == data
    for eid in UNKNOWN:
        assert eid not in g.edges
        with pytest.raises(KeyError):
            g.edges[eid]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 50), sparse=st.booleans())
def test_rows_finds_each_id_and_names_the_first_that_is_no_edge(data, seed, sparse):
    g = random_graph(seed, n_nodes=6, n_edges=8)
    if sparse:
        g = shuffled(g, seed)
    row_of = {eid: row for row, eid in enumerate(g.edges)}
    known = st.sampled_from(sorted(row_of))
    other = st.one_of(
        st.sampled_from(UNKNOWN + (True, False, 1.0, "1", None)),
        known.map(np.int64),
        known.map(float),
    )
    ids = data.draw(st.lists(st.one_of(known, known, other), max_size=6))
    want = [
        row_of.get(int(eid))
        if isinstance(eid, (int, np.integer)) and not isinstance(eid, bool)
        else None
        for eid in ids
    ]
    n = want.index(None) if None in want else len(want)
    rows, unknown = g.columns._lookup(iter(ids))
    assert rows.dtype == np.intp
    assert rows.tolist() == want[:n]
    if None in want:
        message = f"edge id {ids[n]} is not in the graph"
        assert type(unknown) is UnknownEdge and str(unknown) == message
        with pytest.raises(UnknownEdge) as err:
            g.columns.rows(iter(ids))
        assert str(err.value) == message
    else:
        assert unknown is None
        rows = g.columns.rows(iter(ids))
        assert rows.dtype == np.intp
        assert rows.tolist() == want


def test_a_bool_is_not_an_edge_id():
    g = random_graph(0, n_nodes=4, n_edges=3)
    assert 1 in g.edges and True not in g.edges
    for mutate in (mark_broken, remove_edges):
        with pytest.raises(UnknownEdge, match="edge id True is not in the graph"):
            mutate(g, [True])


def test_calm_run_shares_one_columns_object(small_planted):
    # a tick without breaks passes its edge columns on, so the zero-sigma
    # rows and the adjacency are computed once for the whole run
    g, base, _ = small_planted
    ticks = [synth.jittered_tick(g, base, seed=k) for k in range(4)]
    stream = tick_loop(g, ticks, AlertConfig())
    for _ in stream:
        assert stream.graph.columns is g.columns


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_edge_writer_shares_the_columns_it_does_not_write(seed):
    g = random_graph(seed, n_nodes=6, n_edges=8)
    eids = sorted(g.edges)

    def shared(g2, written):
        for name in graphmod._DTYPES:
            column, parent = getattr(g2.columns, name), getattr(g.columns, name)
            assert (column is parent) == (name not in written), name
        assert g2.node_source is g.node_source and g2.epoch == g.epoch

    shared(mark_broken(g, eids[:3]), {"broken"})
    model = CointModel(1.0, 2.0, 0.5, 0.25, 0.01, -4.0, "refit")
    refit = patch(g, ({eids[1]: model, eids[4]: model}, []))
    shared(refit, {*ScanResult.FIELDS, "window_id", "broken"})
    # nothing to write or remove
    assert mark_broken(g, []) is g
    assert remove_edges(g, []) is g
    assert patch(g, ({}, [])) is g
