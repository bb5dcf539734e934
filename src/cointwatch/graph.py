"""The attributed, directed cointegration graph.

Graph versions are immutable once published: every mutating operation
returns a new CointGraph that shares unchanged nodes/edges with its parent,
so readers of the previous epoch keep a consistent view while the next tick
is being assembled.

A version holds its nodes either as a tuple of SymbolNode (built, loaded,
or made by update_prices/with_nodes) or, when a TickStream published it, as
a NodeSnapshot: the node arrays at its epoch plus the length of the run's
append-only alert log. A snapshot builds its SymbolNode tuple, alert_history
included, the first time a caller reads .nodes or exports the version, so a
tick costs the same however long the run; versions stay immutable by
snapshot plus log length rather than by copying histories (path copying, as
in Driscoll, Sarnak, Sleator and Tarjan, "Making Data Structures
Persistent", JCSS 1989).

Node ids are dense integers assigned at build time; adjacency is stored as
per-node in/out edge-id tuples and kept exactly consistent with the edge
collection (audit_adjacency re-derives and compares).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class NodeSnapshot:
    """The nodes of one graph version a TickStream published, as arrays.

    price (NaN while unpriced), updated (last_update_epoch) and alerted are
    this version's own arrays, never written after it is published. All
    versions of one run share base, the nodes the run started from, and
    log, the run's append-only alert record: one (epoch, ids of the nodes
    that evaluated at least one check, their new alerted flags) entry per
    tick, never written again. length is the number of entries at this
    version's epoch, so entries appended later never reach it. nodes builds
    the SymbolNode tuple on first read, in O(its history), and keeps it.
    """

    symbols: tuple[str, ...]
    price: np.ndarray
    updated: np.ndarray
    alerted: np.ndarray
    base: tuple[SymbolNode, ...]
    log: list[tuple[int, np.ndarray, np.ndarray]]
    length: int

    @classmethod
    def start(cls, g: CointGraph) -> NodeSnapshot:
        """The nodes of g at the head of a new, empty log."""
        nodes = g.nodes
        return cls(
            symbols=tuple(n.symbol for n in nodes),
            price=np.array(
                [np.nan if n.last_price is None else n.last_price for n in nodes],
                dtype=np.float64,
            ),
            updated=np.array([n.last_update_epoch for n in nodes], dtype=np.int64),
            alerted=np.array([n.alert_state == ALERTED for n in nodes], dtype=bool),
            base=nodes,
            log=[],
            length=0,
        )

    def __len__(self) -> int:
        return len(self.symbols)

    def priced(self, ids: np.ndarray, prices: np.ndarray, epoch: int) -> NodeSnapshot:
        """These nodes after one tick's prices (see tick_prices) at epoch."""
        price = self.price.copy()
        price[ids] = prices
        updated = self.updated.copy()
        updated[ids] = epoch
        return NodeSnapshot(
            self.symbols, price, updated, self.alerted, self.base, self.log, self.length
        )

    def evaluated(self, epoch: int, ids: np.ndarray, alerted: np.ndarray) -> NodeSnapshot:
        """These nodes after one tick's checks: the evaluated nodes' alerted
        flags written, and their log entry appended."""
        if self.length != len(self.log):
            raise RuntimeError("only the newest version of a run can take its next tick")
        flags = self.alerted.copy()
        flags[ids] = alerted
        self.log.append((epoch, ids, alerted))
        return NodeSnapshot(
            self.symbols, self.price, self.updated, flags, self.base, self.log, self.length + 1
        )

    @cached_property
    def nodes(self) -> tuple[SymbolNode, ...]:
        added: list[list[tuple[int, str]]] = [[] for _ in self.base]
        for epoch, ids, alerted in islice(self.log, self.length):
            for nid, flag in zip(ids.tolist(), alerted.tolist()):
                added[nid].append((epoch, ALERTED if flag else CLEAR))
        return tuple(
            SymbolNode(
                id=b.id,
                symbol=b.symbol,
                # a node no tick of the run priced keeps its own price object
                last_price=b.last_price if updated == b.last_update_epoch else price,
                alert_state=ALERTED if flag else CLEAR,
                alert_history=b.alert_history + tuple(history),
                last_update_epoch=updated,
            )
            for b, price, updated, flag, history in zip(
                self.base, self.price.tolist(), self.updated.tolist(), self.alerted.tolist(), added
            )
        )


@dataclass(frozen=True, eq=False)
class CointGraph:
    """One graph version.

    node_source holds the nodes as a tuple, or as the NodeSnapshot of a
    version a TickStream published; read them through .nodes, which builds
    a snapshot's tuple once. Versions compare by value, whichever way they
    hold their nodes.
    """

    node_source: tuple[SymbolNode, ...] | NodeSnapshot
    edges: dict[int, CointEdge]
    out_edges: tuple[tuple[int, ...], ...]
    in_edges: tuple[tuple[int, ...], ...]
    epoch: int
    symbol_ids: dict[str, int]

    @property
    def nodes(self) -> tuple[SymbolNode, ...]:
        source = self.node_source
        return source.nodes if isinstance(source, NodeSnapshot) else source

    @property
    def n_nodes(self) -> int:
        return len(self.node_source)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def symbol(self, node_id: int) -> str:
        """The symbol of a node, without building a snapshot's nodes."""
        source = self.node_source
        if isinstance(source, NodeSnapshot):
            return source.symbols[node_id]
        return source[node_id].symbol

    def node_of(self, symbol: str) -> SymbolNode:
        try:
            return self.nodes[self.symbol_ids[symbol]]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the graph") from None

    def is_fresh(self, node_id: int) -> bool:
        node = self.nodes[node_id]
        return node.last_update_epoch == self.epoch and node.last_price is not None

    def __eq__(self, other):
        if not isinstance(other, CointGraph):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.symbol_ids == other.symbol_ids
            and self.edges == other.edges
            and self.out_edges == other.out_edges
            and self.in_edges == other.in_edges
            and self.nodes == other.nodes
        )


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
        node_source=nodes,
        edges=edges,
        out_edges=out_adj,
        in_edges=in_adj,
        epoch=0,
        symbol_ids=symbol_ids,
    )


# value types a tick's prices are converted in bulk from; anything else,
# bool included, is checked entry by entry
_PLAIN_PRICE_TYPES = frozenset((float, int, np.float64))


def tick_prices(
    symbol_ids: Mapping[str, int], tick: Mapping[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate one tick: the node ids (intp) and float64 prices of its
    symbols, in tick order. Both price paths (update_prices, TickStream)
    call it.

    A tick of known symbols and plain int/float prices is checked in bulk;
    otherwise, or when the bulk check fails, the entries are checked one by
    one, so the first bad one in tick order raises.

    Raises:
        UnknownSymbol: a symbol is not in the graph.
        NonPositivePrice: a price is not a positive finite number (a bool is
            not a price).
    """
    values = list(tick.values())
    if _PLAIN_PRICE_TYPES.issuperset(map(type, values)):
        try:
            ids = np.fromiter(map(symbol_ids.get, tick), dtype=np.intp, count=len(values))
            prices = np.array(values, dtype=np.float64)
        except (TypeError, OverflowError):  # an unknown symbol, an int beyond float
            pass
        else:
            if np.isfinite(prices).all() and (prices > 0.0).all():
                return ids, prices
    id_list: list[int] = []
    for symbol, price in tick.items():
        nid = symbol_ids.get(symbol)
        if nid is None:
            raise UnknownSymbol(f"tick references unknown symbol {symbol!r}")
        if isinstance(price, bool) or not (
            isinstance(price, (int, float)) and math.isfinite(price) and price > 0
        ):
            raise NonPositivePrice(f"{symbol}: price {price!r} is not a positive finite number")
        id_list.append(nid)
    return np.array(id_list, dtype=np.intp), np.array([float(p) for p in values], dtype=np.float64)


def update_prices(g: CointGraph, tick: Mapping[str, float]) -> CointGraph:
    """Apply one tick: supplied symbols get the new price and become fresh
    for the new epoch; the rest keep their prior price and are stale.

    Never touches topology. Epoch increments by exactly 1.
    """
    ids, prices = tick_prices(g.symbol_ids, tick)
    epoch = g.epoch + 1
    nodes = list(g.nodes)
    for nid, price in zip(ids.tolist(), prices.tolist()):
        n = nodes[nid]
        nodes[nid] = SymbolNode(
            id=n.id,
            symbol=n.symbol,
            last_price=price,
            alert_state=n.alert_state,
            alert_history=n.alert_history,
            last_update_epoch=epoch,
        )
    return replace(g, node_source=tuple(nodes), epoch=epoch)


def neighbors(g: CointGraph, node_id: int) -> list[tuple[CointEdge, int]]:
    """All incident edges (both directions) with the opposite endpoint,
    sorted by neighbor id then edge id."""
    if not 0 <= node_id < g.n_nodes:
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
    return CointGraph(
        g.node_source, edges, tuple(out_adj), tuple(in_adj), g.epoch, g.symbol_ids
    )


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
        e = edges[eid]
        if not e.broken:
            edges[eid] = CointEdge(e.id, e.src, e.dst, e.model, True)
    return CointGraph(g.node_source, edges, g.out_edges, g.in_edges, g.epoch, g.symbol_ids)


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
        e = edges[eid]
        edges[eid] = CointEdge(e.id, e.src, e.dst, model, False)
    return CointGraph(g.node_source, edges, g.out_edges, g.in_edges, g.epoch, g.symbol_ids)


def with_nodes(g: CointGraph, new_nodes: Mapping[int, SymbolNode]) -> CointGraph:
    """Publish a version with some nodes replaced (alert bookkeeping)."""
    if not new_nodes:
        return g
    for nid in new_nodes:
        if not 0 <= nid < g.n_nodes:
            raise UnknownNode(f"node id {nid} is not in the graph")
    nodes = tuple(new_nodes.get(i, n) for i, n in enumerate(g.nodes))
    return replace(g, node_source=nodes)


def audit_adjacency(g: CointGraph) -> bool:
    """Verify adjacency lists agree exactly with the edge collection."""
    out_adj, in_adj = _index_adjacency(g.n_nodes, g.edges)
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
        node_source=nodes,
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
