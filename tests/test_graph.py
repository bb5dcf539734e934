import dataclasses

import numpy as np
import pytest

from cointwatch import graph as graphmod
from cointwatch.coint import PairResult
from cointwatch.errors import (
    DuplicateEdge,
    NonPositivePrice,
    UnknownEdge,
    UnknownNode,
    UnknownSymbol,
)
from cointwatch.graph import (
    audit_adjacency,
    build_graph,
    export,
    from_json_obj,
    neighbors,
    remove_edges,
    update_prices,
)

from conftest import dummy_model, random_graph
from oracle import is_fresh, replace_models, to_json_obj


def pair(src, dst, pvalue=0.01, resid_std=1.0):
    return PairResult(src, dst, dummy_model(resid_std=resid_std, pvalue=pvalue), admitted=True)


def adjacency_matrix_oracle(g):
    """Dense incident-edge oracle: mat[v] collects (neighbor, edge id)."""
    incident = {v: [] for v in range(g.n_nodes)}
    for eid, e in g.edges.items():
        incident[e.src].append((e.dst, eid))
        incident[e.dst].append((e.src, eid))
    return {v: sorted(pairs) for v, pairs in incident.items()}


class TestBuildGraph:
    def test_empty_results(self):
        g = build_graph([], 0.05, symbols=list("ABCDE"))
        assert g.n_nodes == 5
        assert g.n_edges == 0
        assert g.epoch == 0
        assert audit_adjacency(g)

    def test_three_edges_four_symbols(self):
        results = [pair("A", "B"), pair("B", "C"), pair("C", "D")]
        g = build_graph(results, 0.05, symbols=list("ABCD"))
        assert g.n_nodes == 4
        assert g.n_edges == 3
        assert audit_adjacency(g)

    def test_admission_rederived_from_threshold(self):
        results = [pair("A", "B", pvalue=0.01), pair("B", "A", pvalue=0.04)]
        assert build_graph(results, 0.05, list("AB")).n_edges == 2
        assert build_graph(results, 0.02, list("AB")).n_edges == 1

    def test_zero_sigma_never_admitted(self):
        results = [pair("A", "B", resid_std=0.0)]
        assert build_graph(results, 0.05, list("AB")).n_edges == 0

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph([pair("A", "B"), pair("A", "B")], 0.05, list("AB"))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(UnknownSymbol):
            build_graph([pair("A", "Z")], 0.05, list("AB"))

    def test_ids_are_dense_and_ordered(self):
        g = build_graph([], 0.05, symbols=["MSFT", "AAPL", "GOOG"])
        assert [n.symbol for n in g.nodes] == ["MSFT", "AAPL", "GOOG"]
        assert [n.id for n in g.nodes] == [0, 1, 2]


class TestUpdatePrices:
    def setup_method(self):
        self.g = build_graph([pair("A", "B")], 0.05, list("AB"))

    def test_full_tick(self):
        g2 = update_prices(self.g, {"A": 10.0, "B": 20.0})
        assert g2.epoch == 1
        assert g2.nodes[0].last_price == 10.0
        assert is_fresh(g2, 0) and is_fresh(g2, 1)
        assert self.g.epoch == 0  # prior version untouched

    def test_empty_tick_everyone_stale(self):
        g2 = update_prices(update_prices(self.g, {"A": 10.0, "B": 20.0}), {})
        assert g2.epoch == 2
        assert g2.nodes[0].last_price == 10.0
        assert not is_fresh(g2, 0) and not is_fresh(g2, 1)

    def test_partial_tick(self):
        g2 = update_prices(self.g, {"A": 10.0, "B": 20.0})
        g3 = update_prices(g2, {"A": 11.0})
        assert is_fresh(g3, 0) and not is_fresh(g3, 1)
        assert g3.nodes[1].last_price == 20.0

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            update_prices(self.g, {"ZZZ": 1.0})

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            update_prices(self.g, {"A": 0.0})
        with pytest.raises(NonPositivePrice):
            update_prices(self.g, {"A": float("nan")})
        with pytest.raises(NonPositivePrice):
            update_prices(self.g, {"A": True})  # bool is an int, but not a price

    def test_topology_untouched(self):
        g2 = update_prices(self.g, {"A": 10.0})
        assert g2.columns is self.g.columns


class TestNeighbors:
    def test_isolated_node(self):
        g = build_graph([], 0.05, list("AB"))
        assert neighbors(g, 0) == []

    def test_star_center(self):
        results = [pair("S", d) for d in ("A", "B", "C", "D")]
        g = build_graph(results, 0.05, ["S", "A", "B", "C", "D"])
        center = g.symbol_ids["S"]
        found = neighbors(g, center)
        assert len(found) == 4
        assert [nbr for _, nbr in found] == sorted(nbr for _, nbr in found)

    def test_unknown_node(self):
        g = build_graph([], 0.05, list("AB"))
        with pytest.raises(UnknownNode):
            neighbors(g, 99)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        g = random_graph(seed, n_nodes=15, n_edges=30)
        oracle = adjacency_matrix_oracle(g)
        for v in range(g.n_nodes):
            got = [(nbr, e.id) for e, nbr in neighbors(g, v)]
            assert got == oracle[v]


class TestRemoveEdges:
    def test_remove_all(self):
        g = random_graph(1, n_nodes=8, n_edges=12)
        g2 = remove_edges(g, list(g.edges))
        assert g2.n_edges == 0
        assert g2.n_nodes == g.n_nodes
        assert audit_adjacency(g2)

    def test_remove_nothing_is_identity(self):
        g = random_graph(2, n_nodes=8, n_edges=12)
        assert remove_edges(g, []) == g

    def test_unknown_edge(self):
        g = random_graph(3)
        with pytest.raises(UnknownEdge):
            remove_edges(g, [999])

    @pytest.mark.parametrize("seed", range(3))
    def test_remove_some_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(40 + seed, n_nodes=10, n_edges=20)
        doomed = list(rng.choice(sorted(g.edges), size=7, replace=False))
        g2 = remove_edges(g, [int(e) for e in doomed])
        assert g2.n_edges == g.n_edges - 7
        assert audit_adjacency(g2)
        oracle = adjacency_matrix_oracle(g2)
        for v in range(g2.n_nodes):
            assert [(nbr, e.id) for e, nbr in neighbors(g2, v)] == oracle[v]

    def test_prices_survive_removal(self):
        g = update_prices(random_graph(5), {"S00": 123.0})
        g2 = remove_edges(g, [next(iter(g.edges))])
        assert g2.nodes[g2.symbol_ids["S00"]].last_price == 123.0
        assert g2.epoch == g.epoch


class TestMutationHelpers:
    def test_mark_broken(self):
        g = random_graph(6)
        eid = sorted(g.edges)[0]
        g2 = graphmod.mark_broken(g, [eid])
        assert g2.edges[eid].broken
        assert not g.edges[eid].broken
        untouched = sorted(g.edges)[1]
        assert g2.edges[untouched] == g.edges[untouched]

    def test_replace_model_clears_broken(self):
        g = random_graph(7)
        eid = sorted(g.edges)[0]
        g = graphmod.mark_broken(g, [eid])
        new_model = dummy_model(resid_std=9.9)
        g2 = replace_models(g, {eid: new_model})
        assert g2.edges[eid].model == new_model
        assert not g2.edges[eid].broken


class TestAudit:
    def test_detects_corruption(self):
        g = random_graph(8)
        # every edge a self-loop: columns the derived adjacency cannot mend
        bad = dataclasses.replace(g, columns=dataclasses.replace(g.columns, dst=g.columns.src))
        with pytest.raises(RuntimeError):
            audit_adjacency(bad)


class TestExport:
    def test_empty_graph_json(self):
        g = build_graph([], 0.05, [])
        data = export(g, "json")
        assert data == b'{"edges":[],"epoch":0,"nodes":[]}\n'

    def test_empty_graph_dot(self):
        g = build_graph([], 0.05, [])
        text = export(g, "dot").decode()
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_two_node_one_edge_dot(self):
        g = build_graph([pair("A", "B", resid_std=0.5)], 0.05, list("AB"))
        text = export(g, "dot").decode()
        assert text.count("->") == 1
        assert "penwidth=2" in text  # 1 / 0.5

    def test_broken_edge_dashed(self):
        g = build_graph([pair("A", "B")], 0.05, list("AB"))
        g = graphmod.mark_broken(g, [0])
        assert "style=dashed" in export(g, "dot").decode()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export(build_graph([], 0.05, []), "svg")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_json_roundtrip_byte_identical(self, seed):
        g = random_graph(seed, n_nodes=50, n_edges=120)
        g = update_prices(g, {"S00": 101.5, "S07": 55.25})
        first = export(g, "json")
        rebuilt = from_json_obj(to_json_obj(g))
        assert export(rebuilt, "json") == first
        assert rebuilt == g
