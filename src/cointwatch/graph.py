"""The attributed, directed cointegration graph.

Graph versions are immutable once published: every mutating operation
returns a new CointGraph that shares unchanged nodes/edges with its parent,
so readers of the previous epoch keep a consistent view while the next tick
is being assembled.

Node ids are dense integers assigned at build time; adjacency is stored as
per-node in/out edge-id tuples and kept exactly consistent with the edge
collection (audit_adjacency re-derives and compares).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .coint import CointModel, PairResult
from .errors import (
    DuplicateEdge,
    NonPositivePrice,
    UnknownEdge,
    UnknownNode,
    UnknownSymbol,
)

CLEAR = "clear"
ALERTED = "alerted"
_STATES = (CLEAR, ALERTED)


@dataclass(frozen=True)
class SymbolNode:
    """One monitored symbol.

    last_price is None until the first tick covers the symbol;
    last_update_epoch tracks freshness (a node is fresh in epoch e iff
    last_update_epoch == e). alert_history is an ordered (epoch, state)
    record appended whenever the node evaluates at least one leash check.
    """

    id: int
    symbol: str
    last_price: float | None = None
    alert_state: str = CLEAR
    alert_history: tuple[tuple[int, str], ...] = ()
    last_update_epoch: int = -1


@dataclass(frozen=True)
class CointEdge:
    """Directed edge src -> dst carrying the fitted pair model.

    broken is sticky: set when a tick observes the pair outside its leash,
    cleared only when a recompute refit re-admits the pair.
    """

    id: int
    src: int
    dst: int
    model: CointModel
    broken: bool = False


@dataclass(frozen=True)
class CointGraph:
    nodes: tuple[SymbolNode, ...]
    edges: dict[int, CointEdge]
    out_edges: tuple[tuple[int, ...], ...]
    in_edges: tuple[tuple[int, ...], ...]
    epoch: int
    symbol_ids: dict[str, int]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_of(self, symbol: str) -> SymbolNode:
        try:
            return self.nodes[self.symbol_ids[symbol]]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the graph") from None

    def is_fresh(self, node_id: int) -> bool:
        node = self.nodes[node_id]
        return node.last_update_epoch == self.epoch and node.last_price is not None


def _index_adjacency(n_nodes: int, edges: Mapping[int, CointEdge]):
    out_lists: list[list[int]] = [[] for _ in range(n_nodes)]
    in_lists: list[list[int]] = [[] for _ in range(n_nodes)]
    for eid in sorted(edges):
        e = edges[eid]
        out_lists[e.src].append(eid)
        in_lists[e.dst].append(eid)
    return tuple(map(tuple, out_lists)), tuple(map(tuple, in_lists))


def build_graph(
    results: Iterable[PairResult], epsilon: float, symbols: Sequence[str]
) -> CointGraph:
    """Assemble the graph from scanned pair results.

    One node per universe symbol (isolated symbols included). One edge per
    result whose model clears the admission rule pvalue < epsilon with
    resid_std > 0; admission is re-derived from the stored model so a scan
    can be re-thresholded without refitting.

    Raises:
        DuplicateEdge: the results repeat an ordered (src, dst) pair.
        UnknownSymbol: a result references a symbol outside the universe.
    """
    symbols = list(symbols)
    if len(set(symbols)) != len(symbols):
        raise ValueError("universe contains duplicate symbols")
    symbol_ids = {s: i for i, s in enumerate(symbols)}
    nodes = tuple(SymbolNode(id=i, symbol=s) for i, s in enumerate(symbols))

    seen: set[tuple[str, str]] = set()
    admitted: list[PairResult] = []
    for r in results:
        key = (r.src_symbol, r.dst_symbol)
        if key in seen:
            raise DuplicateEdge(f"pair {key[0]}->{key[1]} appears more than once")
        seen.add(key)
        if r.src_symbol not in symbol_ids:
            raise UnknownSymbol(f"result references unknown symbol {r.src_symbol!r}")
        if r.dst_symbol not in symbol_ids:
            raise UnknownSymbol(f"result references unknown symbol {r.dst_symbol!r}")
        if r.model.pvalue < epsilon and r.model.resid_std > 0.0:
            admitted.append(r)

    admitted.sort(key=lambda r: (r.src_symbol, r.dst_symbol))
    edges = {
        eid: CointEdge(
            id=eid,
            src=symbol_ids[r.src_symbol],
            dst=symbol_ids[r.dst_symbol],
            model=r.model,
        )
        for eid, r in enumerate(admitted)
    }
    out_adj, in_adj = _index_adjacency(len(nodes), edges)
    return CointGraph(
        nodes=nodes,
        edges=edges,
        out_edges=out_adj,
        in_edges=in_adj,
        epoch=0,
        symbol_ids=symbol_ids,
    )


def update_prices(g: CointGraph, tick: Mapping[str, float]) -> CointGraph:
    """Apply one tick: supplied symbols get the new price and become fresh
    for the new epoch; the rest keep their prior price and are stale.

    Never touches topology. Epoch increments by exactly 1.
    """
    for symbol, price in tick.items():
        if symbol not in g.symbol_ids:
            raise UnknownSymbol(f"tick references unknown symbol {symbol!r}")
        if isinstance(price, bool) or not (
            isinstance(price, (int, float)) and math.isfinite(price) and price > 0
        ):
            raise NonPositivePrice(f"{symbol}: price {price!r} is not a positive finite number")
    epoch = g.epoch + 1
    nodes = tuple(
        SymbolNode(
            id=n.id,
            symbol=n.symbol,
            last_price=float(tick[n.symbol]),
            alert_state=n.alert_state,
            alert_history=n.alert_history,
            last_update_epoch=epoch,
        )
        if n.symbol in tick
        else n
        for n in g.nodes
    )
    return replace(g, nodes=nodes, epoch=epoch)


def neighbors(g: CointGraph, node_id: int) -> list[tuple[CointEdge, int]]:
    """All incident edges (both directions) with the opposite endpoint,
    sorted by neighbor id then edge id."""
    if not 0 <= node_id < len(g.nodes):
        raise UnknownNode(f"node id {node_id} is not in the graph")
    found = [(g.edges[eid], g.edges[eid].dst) for eid in g.out_edges[node_id]]
    found += [(g.edges[eid], g.edges[eid].src) for eid in g.in_edges[node_id]]
    found.sort(key=lambda pair: (pair[1], pair[0].id))
    return found


def remove_edges(g: CointGraph, edge_ids: Iterable[int]) -> CointGraph:
    """Drop the given edges; node set and prices are untouched. Only the
    adjacency tuples of the dropped edges' endpoints are rebuilt."""
    ids = list(edge_ids)
    for eid in ids:
        if eid not in g.edges:
            raise UnknownEdge(f"edge id {eid} is not in the graph")
    if not ids:
        return g
    doomed = set(ids)
    edges = dict(g.edges)
    for eid in doomed:
        del edges[eid]
    out_adj = list(g.out_edges)
    in_adj = list(g.in_edges)
    for v in {g.edges[eid].src for eid in doomed}:
        out_adj[v] = tuple(eid for eid in out_adj[v] if eid not in doomed)
    for v in {g.edges[eid].dst for eid in doomed}:
        in_adj[v] = tuple(eid for eid in in_adj[v] if eid not in doomed)
    return replace(g, edges=edges, out_edges=tuple(out_adj), in_edges=tuple(in_adj))


def mark_broken(g: CointGraph, edge_ids: Iterable[int]) -> CointGraph:
    """Flag edges as broken (leash violation observed)."""
    ids = set(edge_ids)
    for eid in ids:
        if eid not in g.edges:
            raise UnknownEdge(f"edge id {eid} is not in the graph")
    if not ids:
        return g
    edges = dict(g.edges)
    for eid in ids:
        if not edges[eid].broken:
            edges[eid] = replace(edges[eid], broken=True)
    return replace(g, edges=edges)


def replace_model(g: CointGraph, edge_id: int, model: CointModel) -> CointGraph:
    """Swap in a refit model and clear the broken flag."""
    return replace_models(g, {edge_id: model})


def replace_models(g: CointGraph, models: Mapping[int, CointModel]) -> CointGraph:
    """Swap in refit models, keyed by edge id, and clear their broken flags."""
    for eid in models:
        if eid not in g.edges:
            raise UnknownEdge(f"edge id {eid} is not in the graph")
    if not models:
        return g
    edges = dict(g.edges)
    for eid, model in models.items():
        edges[eid] = replace(edges[eid], model=model, broken=False)
    return replace(g, edges=edges)


def with_nodes(g: CointGraph, new_nodes: Mapping[int, SymbolNode]) -> CointGraph:
    """Publish a version with some nodes replaced (alert bookkeeping)."""
    if not new_nodes:
        return g
    for nid in new_nodes:
        if not 0 <= nid < len(g.nodes):
            raise UnknownNode(f"node id {nid} is not in the graph")
    nodes = tuple(new_nodes.get(i, n) for i, n in enumerate(g.nodes))
    return replace(g, nodes=nodes)


def audit_adjacency(g: CointGraph) -> bool:
    """Verify adjacency lists agree exactly with the edge collection."""
    out_adj, in_adj = _index_adjacency(len(g.nodes), g.edges)
    if out_adj != g.out_edges or in_adj != g.in_edges:
        raise RuntimeError("adjacency lists disagree with the edge collection")
    pairs = [(e.src, e.dst) for e in g.edges.values()]
    if len(set(pairs)) != len(pairs):
        raise RuntimeError("graph contains duplicate (src, dst) edges")
    for e in g.edges.values():
        if e.src == e.dst:
            raise RuntimeError(f"edge {e.id} is a self-loop")
    return True


# -- export / import ----------------------------------------------------------

FORMAT_JSON = "json"
FORMAT_DOT = "dot"


def _node_to_obj(n: SymbolNode) -> dict:
    return {
        "id": n.id,
        "symbol": n.symbol,
        "last_price": n.last_price,
        "alert_state": n.alert_state,
        "alert_history": [[epoch, state] for epoch, state in n.alert_history],
        "last_update_epoch": n.last_update_epoch,
    }


def _edge_to_obj(e: CointEdge) -> dict:
    m = e.model
    return {
        "id": e.id,
        "src": e.src,
        "dst": e.dst,
        "broken": e.broken,
        "model": {
            "beta0": m.beta0,
            "beta1": m.beta1,
            "resid_mean": m.resid_mean,
            "resid_std": m.resid_std,
            "pvalue": m.pvalue,
            "adf_stat": m.adf_stat,
            "window_id": m.window_id,
        },
    }


def to_json_obj(g: CointGraph) -> dict:
    return {
        "epoch": g.epoch,
        "nodes": [_node_to_obj(n) for n in g.nodes],
        "edges": [_edge_to_obj(g.edges[eid]) for eid in sorted(g.edges)],
    }


def from_json_obj(obj: dict) -> CointGraph:
    """Rebuild a graph from the export schema. Structural parse only; the
    pipeline loader performs full field validation first."""
    nodes = tuple(
        SymbolNode(
            id=n["id"],
            symbol=n["symbol"],
            last_price=n["last_price"],
            alert_state=n["alert_state"],
            alert_history=tuple((int(e), s) for e, s in n["alert_history"]),
            last_update_epoch=n["last_update_epoch"],
        )
        for n in obj["nodes"]
    )
    edges = {}
    for e in obj["edges"]:
        m = e["model"]
        edges[e["id"]] = CointEdge(
            id=e["id"],
            src=e["src"],
            dst=e["dst"],
            broken=e["broken"],
            model=CointModel(
                beta0=m["beta0"],
                beta1=m["beta1"],
                resid_mean=m["resid_mean"],
                resid_std=m["resid_std"],
                pvalue=m["pvalue"],
                adf_stat=m["adf_stat"],
                window_id=m["window_id"],
            ),
        )
    out_adj, in_adj = _index_adjacency(len(nodes), edges)
    return CointGraph(
        nodes=nodes,
        edges=edges,
        out_edges=out_adj,
        in_edges=in_adj,
        epoch=obj["epoch"],
        symbol_ids={n.symbol: n.id for n in nodes},
    )


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(g: CointGraph, format: str = FORMAT_JSON) -> bytes:
    """Serialize the graph.

    JSON: canonical (sorted keys, no whitespace) so save/load/save is
    byte-stable. DOT: one node statement per symbol and one edge statement
    per edge with penwidth = 1/resid_std (tighter pairs draw thicker) and
    style=dashed on broken edges.
    """
    if format == FORMAT_JSON:
        text = json.dumps(to_json_obj(g), sort_keys=True, separators=(",", ":"))
        return text.encode("utf-8") + b"\n"
    if format == FORMAT_DOT:
        lines = ["digraph cointegration {"]
        for n in g.nodes:
            lines.append(f"  {n.id} [label={_dot_quote(n.symbol)}];")
        for eid in sorted(g.edges):
            e = g.edges[eid]
            width = 1.0 / e.model.resid_std if e.model.resid_std > 0 else 0.0
            attrs = [f"penwidth={format_float(width)}"]
            if e.broken:
                attrs.append("style=dashed")
            lines.append(f"  {e.src} -> {e.dst} [{', '.join(attrs)}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")


def format_float(x: float) -> str:
    return format(x, ".6g")
