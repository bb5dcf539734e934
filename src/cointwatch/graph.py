"""The attributed, directed cointegration graph.

Graph versions are immutable once published: every mutating operation
returns a new CointGraph that shares what it leaves unchanged (the nodes,
the edge columns it does not write) with its parent, so readers of the
previous epoch keep a consistent view while the next tick is being
assembled.

A version holds its nodes as one NodeSnapshot: the node arrays at its
epoch plus the length of the run's append-only alert log (an empty one for
a built or loaded graph). The SymbolNode tuple, alert_history included, is
a view built the first time a caller reads .nodes or exports the version as
JSON, so a tick costs the same however long the run; versions stay
immutable by snapshot plus log length rather than by copying histories
(path copying, as in Driscoll, Sarnak, Sleator and Tarjan, "Making Data
Structures Persistent", JCSS 1989).

An alert history is held and written run-length encoded, as column stores
hold long runs of one value (Abadi, Madden and Ferreira, "Integrating
Compression and Execution in Column-Oriented Database Systems", SIGMOD
2006): one (first_epoch, count, state) run per maximal stretch of
consecutive evaluated epochs in one state, so a history grows with the
node's state changes and stale ticks, not with the run's length.

Edges are held only as columns (EdgeColumns, as in column stores): one
array per edge field, rows in ascending id order. Every edge change is one
call of _patch, which copies the columns it writes or cuts and shares the
rest; the tick kernel, refits, tick builders and export read them, and
g.edges reads them as a mapping. Each node's neighbourhood is one index
over the 2E edge endpoints (Incidence, in CSR form: the edge rows grouped
by node, as Pregel keeps per-vertex edge lists; Malewicz et al., SIGMOD
2010), built once per columns object from one stable argsort and carried
by _patch, which shares it when no row goes and patches it when rows do.
The tick kernel reads each node's segment, and the in/out edge-id tuples
(adjacency) are split from the same segments, so neither can disagree
with the edges. Node ids are dense integers assigned at build time.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coint import CointModel, PairResult, ScanResult, admits
from .errors import (
    DuplicateEdge,
    NonPositivePrice,
    SchemaViolation,
    UnknownEdge,
    UnknownNode,
    UnknownSymbol,
)

CLEAR = "clear"
ALERTED = "alerted"
MAX_EPOCH = 2**62  # so a run can advance a loaded epoch as often again in int64
_FLOAT_MAX = sys.float_info.max  # a number at most this in size is finite, an int one too


@dataclass(frozen=True)
class SymbolNode:
    """One monitored symbol.

    last_price is None until the first tick covers the symbol;
    last_update_epoch tracks freshness (a node is fresh in epoch e iff
    last_update_epoch == e). alert_history records the node's state at
    each epoch in which it evaluated at least one leash check, as maximal
    (first_epoch, count, state) runs: a run covers count consecutive
    evaluated epochs in one state, and a stale epoch or a change of state
    starts the next.
    """

    id: int
    symbol: str
    last_price: float | None = None
    alert_state: str = CLEAR
    alert_history: tuple[tuple[int, int, str], ...] = ()
    last_update_epoch: int = -1


def _append_run(runs: list, first: int, count: int, state: str) -> None:
    """Extend a history's runs by count evaluated epochs in state from
    first on: merged into the last run when they continue it (same state,
    from the epoch after its end), else appended as a new run."""
    if runs:
        last_first, last_count, last_state = runs[-1]
        if last_state == state and last_first + last_count == first:
            runs[-1] = (last_first, last_count + count, state)
            return
    runs.append((first, count, state))


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
    """The nodes of one graph version, as arrays.

    price (NaN while unpriced), updated (last_update_epoch) and alerted are
    this version's own arrays, never written after it is published. All
    versions of one run share symbol_ids (each symbol's node id, in id
    order), base, the nodes the run started from, and log, the run's
    append-only alert record: one (epoch, ids of the nodes that evaluated at
    least one check, their new alerted flags) entry per tick, never written
    again. length is the number of entries at this version's epoch, so
    entries appended later never reach it. nodes builds the SymbolNode tuple
    on first read and keeps it: the log's entries are cut into runs in array
    passes, and one Python tuple is made per run, not per entry.
    """

    symbol_ids: dict[str, int]
    price: np.ndarray
    updated: np.ndarray
    alerted: np.ndarray
    base: tuple[SymbolNode, ...]
    log: list[tuple[int, np.ndarray, np.ndarray]]
    length: int

    @classmethod
    def of_nodes(cls, nodes: Iterable[SymbolNode]) -> NodeSnapshot:
        """These nodes as the base of a new, empty log; read back through
        .nodes, they are the nodes given.

        Raises:
            ValueError: the ids are not 0..n-1 in order, or a symbol repeats.
        """
        nodes = tuple(nodes)
        if [n.id for n in nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be 0..n-1 in order")
        symbol_ids = {n.symbol: n.id for n in nodes}
        if len(symbol_ids) != len(nodes):
            raise ValueError("universe contains duplicate symbols")
        snapshot = cls(
            symbol_ids,
            np.array([np.nan if n.last_price is None else n.last_price for n in nodes], np.float64),
            np.array([n.last_update_epoch for n in nodes], np.int64),
            np.array([n.alert_state == ALERTED for n in nodes], bool),
            nodes,
            [],
            0,
        )
        snapshot.__dict__["nodes"] = nodes  # the head of an empty log is the base
        return snapshot

    def priced(self, ids: np.ndarray, prices: np.ndarray, epoch: int) -> NodeSnapshot:
        """These nodes after one tick's prices (see tick_prices) at epoch."""
        price = self.price.copy()
        price[ids] = prices
        updated = self.updated.copy()
        updated[ids] = epoch
        return NodeSnapshot(
            self.symbol_ids, price, updated, self.alerted, self.base, self.log, self.length
        )

    def branch(self) -> NodeSnapshot:
        """These nodes at the head of a log of their own, a copy of this
        version's entries (pointers only), so that two runs never append to
        one log."""
        return replace(self, log=self.log[: self.length])

    def evaluated(self, epoch: int, ids: np.ndarray, alerted: np.ndarray) -> NodeSnapshot:
        """These nodes after one tick's checks: the evaluated nodes' alerted
        flags written, and their log entry appended."""
        if self.length != len(self.log):
            raise RuntimeError("only the newest version of a run can take its next tick")
        flags = self.alerted.copy()
        flags[ids] = alerted
        self.log.append((epoch, ids, alerted))
        return NodeSnapshot(
            self.symbol_ids, self.price, self.updated, flags, self.base, self.log, self.length + 1
        )

    @cached_property
    def nodes(self) -> tuple[SymbolNode, ...]:
        return tuple(
            SymbolNode(
                id=b.id,
                symbol=b.symbol,
                # a node no tick of the run priced keeps its own price object
                last_price=b.last_price if updated == b.last_update_epoch else price,
                alert_state=ALERTED if flag else CLEAR,
                alert_history=history,
                last_update_epoch=updated,
            )
            for b, price, updated, flag, history in zip(
                self.base,
                self.price.tolist(),
                self.updated.tolist(),
                self.alerted.tolist(),
                self._histories(),
            )
        )

    def _histories(self) -> list[tuple[tuple[int, int, str], ...]]:
        """Each node's alert history at this version: its base history
        followed by the runs its log entries form."""
        entries = self.log[: self.length]
        if not entries:
            return [b.alert_history for b in self.base]
        sizes = [len(ids) for _, ids, _ in entries]
        epochs = np.repeat(np.array([e for e, _, _ in entries], dtype=np.int64), sizes)
        ids = np.concatenate([ids for _, ids, _ in entries])
        flags = np.concatenate([flags for _, _, flags in entries])
        # each node's entries together, in epoch order
        order = np.argsort(ids, kind="stable")
        epochs, ids, flags = epochs[order], ids[order], flags[order]
        starts = np.ones(len(ids), dtype=bool)
        # a run starts at a node's first entry, a change of state or an
        # epoch the node did not evaluate
        starts[1:] = (
            (ids[1:] != ids[:-1]) | (flags[1:] != flags[:-1]) | (epochs[1:] != epochs[:-1] + 1)
        )
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=len(ids))
        states = map((CLEAR, ALERTED).__getitem__, flags[first].tolist())
        runs = list(zip(epochs[first].tolist(), counts.tolist(), states))
        bounds = np.searchsorted(ids[first], np.arange(len(self.base) + 1)).tolist()
        histories = []
        for b, lo, hi in zip(self.base, bounds, bounds[1:]):
            history = b.alert_history
            if lo < hi:
                merged = list(history)
                _append_run(merged, *runs[lo])
                merged += runs[lo + 1 : hi]
                history = tuple(merged)
            histories.append(history)
        return histories


# CointModel's fields, a column each: the floats (float64), then window_id
_MODEL_FLOATS = ScanResult.FIELDS
_MODEL_FIELDS = (*_MODEL_FLOATS, "window_id")


@dataclass(frozen=True, eq=False)
class EdgeColumns(Mapping):
    """The edges of a graph version as arrays, one row per edge in
    ascending id order: eid (int64), src and dst (intp node ids), the six
    CointModel floats (float64), window_id (object, str) and broken (bool).
    Never written once made; columns compare by value.

    Read as a mapping, they are {edge id: CointEdge} in id order, each
    CointEdge built when its id is read. What is derived from them is
    computed at most once per columns object, on first read: zero_sigma;
    incidence, each node's edge rows, unless _patch carried it from the
    parent columns; and, split from incidence, the adjacency for each node
    count asked.
    """

    eid: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    resid_mean: np.ndarray
    resid_std: np.ndarray
    pvalue: np.ndarray
    adf_stat: np.ndarray
    window_id: np.ndarray
    broken: np.ndarray
    _adjacency: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of_lists(cls, **values: Sequence) -> EdgeColumns:
        """Columns from one sequence per field, rows in any id order."""
        order = np.argsort(np.array(values["eid"], dtype=np.int64), kind="stable")
        return cls(**{name: np.array(values[name], kind)[order] for name, kind in _DTYPES.items()})

    def __eq__(self, other):
        if not isinstance(other, EdgeColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _DTYPES)

    def __len__(self) -> int:
        return len(self.eid)

    def __iter__(self) -> Iterator[int]:
        return iter(self.eid.tolist())

    def __getitem__(self, eid) -> CointEdge:
        row = self._row(eid)
        if row is None:
            raise KeyError(eid)
        return CointEdge(
            id=int(self.eid[row]),
            src=int(self.src[row]),
            dst=int(self.dst[row]),
            model=CointModel(
                *(float(getattr(self, name)[row]) for name in _MODEL_FLOATS),
                window_id=self.window_id[row],
            ),
            broken=bool(self.broken[row]),
        )

    def _row(self, eid) -> int | None:
        """The row of an edge id; None for any other value, a bool included."""
        eid = _int64(eid)
        if eid is None:
            return None
        row = int(self.eid.searchsorted(eid))
        return row if row < len(self.eid) and self.eid.item(row) == eid else None

    def rows(self, edge_ids: Iterable) -> np.ndarray:
        """The rows of the given edge ids, in their order, repeats kept:
        one searchsorted over all of them.

        Raises:
            UnknownEdge: naming the first id that is not an edge.
        """
        rows, unknown = self._lookup(edge_ids)
        if unknown is not None:
            raise unknown
        return rows

    def _lookup(self, edge_ids: Iterable) -> tuple[np.ndarray, UnknownEdge | None]:
        """rows without the raise: the rows of the ids before the first that
        is not an edge, and the UnknownEdge naming that one (None if every
        id is an edge)."""
        ids = list(edge_ids)
        if not ids:
            return np.empty(0, dtype=np.intp), None
        keys = [_int64(eid) for eid in ids]
        # the ids before the first that is no int64 integer are looked up
        n = keys.index(None) if None in keys else len(keys)
        wanted = keys[:n]
        rows = self.eid.searchsorted(np.array(wanted, dtype=np.int64))
        # a row past the end is clipped to the last, whose id is smaller
        got = self.eid.take(rows, mode="clip").tolist() if len(self.eid) else [None] * n
        if got != wanted:
            n = next(k for k, (a, b) in enumerate(zip(got, wanted)) if a != b)
        if n < len(ids):
            return rows[:n], UnknownEdge(f"edge id {ids[n]} is not in the graph")
        return rows, None

    @cached_property
    def zero_sigma(self) -> np.ndarray:
        """Rows whose resid_std <= 0: a tick that checks one of them raises."""
        return np.flatnonzero(self.resid_std <= 0.0)

    @cached_property
    def incidence(self) -> Incidence:
        """Each node's edge rows (Incidence), from one stable argsort of the
        2E endpoints src, then dst."""
        ends = np.concatenate((self.src, self.dst))
        rows = np.argsort(ends, kind="stable")
        rows[rows >= len(self)] -= len(self)  # entry E + r is row r's dst
        degree = np.bincount(ends)
        nodes = np.flatnonzero(degree)
        return Incidence.of_segments(rows, nodes, degree[nodes])

    def adjacency(self, n_nodes: int):
        """(out_edges, in_edges): per node id below n_nodes, its out- and
        in-edge ids, ascending; each node's incidence segment split where
        its out-edge rows end."""
        found = self._adjacency.get(n_nodes)
        if found is None:
            ids = self.eid[self.incidence.rows].tolist()
            # node v's out- and in-degree, at 2v and 2v + 1
            degrees = np.stack([np.bincount(self.src, minlength=n_nodes),
                                np.bincount(self.dst, minlength=n_nodes)], axis=1)
            bounds = [0, *np.cumsum(degrees).tolist()]
            segments = [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
            found = (tuple(segments[0::2]), tuple(segments[1::2]))
            self._adjacency[n_nodes] = found
        return found


class Incidence(NamedTuple):
    """The edge rows incident to each node, in CSR form over the 2E edge
    endpoints. rows lists every edge row twice, once under its src and once
    under its dst, grouped by node id ascending; within a node's segment
    its out-edge rows come first, then its in-edge rows, each ascending.
    nodes holds the ids of the nodes with at least one edge, ascending, and
    starts and degree the offset and length of each one's segment in rows,
    so a node without an edge has no segment (np.ufunc.reduceat reads a
    segment of length 0 as one entry).
    """

    rows: np.ndarray
    nodes: np.ndarray
    starts: np.ndarray
    degree: np.ndarray

    @classmethod
    def of_segments(cls, rows: np.ndarray, nodes: np.ndarray, degree: np.ndarray) -> Incidence:
        """The index of rows whose segments, in order, are the nodes' with
        these degrees."""
        return cls(rows, nodes, np.cumsum(degree) - degree, degree)

    def without(self, keep: np.ndarray, ends: np.ndarray) -> Incidence:
        """The index once the rows keep marks False are dropped, the rest
        renumbered in order; ends holds the dropped rows' endpoints, src and
        dst. One mask drops their entries and one bincount recounts the
        degrees; nothing is sorted again."""
        rows = self.rows[keep[self.rows]]
        renumbered = (np.cumsum(keep) - 1)[rows]
        lost = np.bincount(self.nodes.searchsorted(ends), minlength=len(self.nodes))
        degree = self.degree - lost
        has = degree > 0
        return Incidence.of_segments(renumbered, self.nodes[has], degree[has])


def _int64(eid) -> int | None:
    """An edge id as an int: None for a value that is no integer (a bool
    is not one) or lies outside int64."""
    if isinstance(eid, bool) or not isinstance(eid, (int, np.integer)):
        return None
    eid = int(eid)
    return eid if -(2**63) <= eid < 2**63 else None


_DTYPES = {
    "eid": np.int64,
    "src": np.intp,
    "dst": np.intp,
    **dict.fromkeys(_MODEL_FLOATS, np.float64),
    "window_id": object,
    "broken": bool,
}


@dataclass(frozen=True, eq=False)
class CointGraph:
    """One graph version.

    node_source holds the nodes as a NodeSnapshot: the arrays a tick reads
    and writes, read as SymbolNodes through .nodes, built once per version.
    symbol_ids maps each symbol to its node id; the store derives it once,
    and every version of a run shares it, so it is not to be written.
    columns holds the edges, also read as the mapping .edges; out_edges and
    in_edges are derived from them. Versions compare by value.
    """

    node_source: NodeSnapshot
    columns: EdgeColumns
    epoch: int

    @property
    def nodes(self) -> tuple[SymbolNode, ...]:
        return self.node_source.nodes

    @property
    def symbol_ids(self) -> dict[str, int]:
        return self.node_source.symbol_ids

    @property
    def edges(self) -> EdgeColumns:
        return self.columns

    @property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        return self.columns.adjacency(self.n_nodes)[0]

    @property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        return self.columns.adjacency(self.n_nodes)[1]

    @property
    def n_nodes(self) -> int:
        return len(self.symbol_ids)

    @property
    def n_edges(self) -> int:
        return len(self.columns)

    def symbol(self, node_id: int) -> str:
        """The symbol of a node, without building the nodes."""
        return self.node_source.base[node_id].symbol

    def node_id(self, symbol: str) -> int:
        try:
            return self.symbol_ids[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the graph") from None

    def __eq__(self, other):
        if not isinstance(other, CointGraph):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.columns == other.columns
            and self.nodes == other.nodes
        )


class PairColumns(NamedTuple):
    """Fitted pairs as columns, as build_graph reads them: a symbol table,
    each pair's src and dst indices into it (intp), its (n, 6)
    ScanResult.FIELDS floats (float64) and its window id (object)."""

    symbols: Sequence[str]
    src: np.ndarray
    dst: np.ndarray
    fields: np.ndarray
    window_ids: np.ndarray


def build_graph(
    results: ScanResult | PairColumns | Iterable[PairResult],
    epsilon: float,
    symbols: Sequence[str],
) -> CointGraph:
    """Assemble the graph from scanned pair results.

    One node per universe symbol (isolated symbols included). One edge per
    result whose model meets the admission rule, coint.admits; admission
    is re-derived from the stored model so a scan can be re-thresholded
    without refitting. Edge ids follow (src, dst) symbol order.

    results is a ScanResult, PairColumns or PairResults; a ScanResult and
    PairResults are first turned into PairColumns. The admitted rows are
    then sliced from those columns into EdgeColumns.of_lists.

    Raises:
        ValueError: symbols repeats a symbol (NodeSnapshot.of_nodes).
        DuplicateEdge: the results repeat an ordered (src, dst) pair of
            symbol names.
        UnknownSymbol: a result references a symbol outside the universe.
        The first result, in the order given, that repeats a pair or
        references an unknown symbol raises, and a repeat is named first.
    """
    nodes = NodeSnapshot.of_nodes(SymbolNode(id=i, symbol=s) for i, s in enumerate(symbols))
    symbol_ids = nodes.symbol_ids
    names, src, dst, fields, window_ids = _columns(results)
    rows = _edge_rows(names, src, dst, symbol_ids)
    rows = rows[admits(fields[rows], epsilon)]
    ids = np.array([symbol_ids.get(s, -1) for s in names], dtype=np.intp)
    columns = EdgeColumns.of_lists(
        eid=np.arange(len(rows)),
        src=ids[src[rows]],
        dst=ids[dst[rows]],
        broken=np.zeros(len(rows), dtype=bool),
        window_id=window_ids[rows],
        **{name: fields[rows, k] for k, name in enumerate(_MODEL_FLOATS)},
    )
    return CointGraph(nodes, columns, 0)


def _columns(results: ScanResult | PairColumns | Iterable[PairResult]) -> PairColumns:
    """The columns of a ScanResult, of PairColumns, or of PairResults in
    the order given."""
    if isinstance(results, PairColumns):
        return results
    if isinstance(results, ScanResult):
        one = np.array([results.window_id], dtype=object)
        window_ids = np.broadcast_to(one, len(results.src))
        return PairColumns(results.symbols, results.src, results.dst, results.fields, window_ids)
    results = list(results)
    models = [r.model for r in results]
    index: dict[str, int] = {}
    ends = [index.setdefault(s, len(index)) for r in results for s in (r.src_symbol, r.dst_symbol)]
    ends = np.array(ends, dtype=np.intp).reshape(len(results), 2)
    floats = chain.from_iterable(map(attrgetter(*_MODEL_FLOATS), models))
    fields = np.fromiter(floats, np.float64, 6 * len(models)).reshape(len(models), 6)
    window_ids = np.array([m.window_id for m in models], dtype=object)
    return PairColumns(tuple(index), ends[:, 0], ends[:, 1], fields, window_ids)


def _edge_rows(
    names: Sequence[str], src: np.ndarray, dst: np.ndarray, symbol_ids: Mapping[str, int]
) -> np.ndarray:
    """The rows of the fitted pairs in (src, dst) symbol-name order, once
    checked that none repeats a pair of names or names a symbol outside
    symbol_ids."""
    rank_of = {s: k for k, s in enumerate(sorted(set(names)))}  # equal names, equal ranks
    rank = np.array([rank_of[s] for s in names], dtype=np.intp)
    key = rank[src] * len(rank_of) + rank[dst]
    order = np.argsort(key, kind="stable")
    # a row that repeats an earlier row's pair follows it in the order
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    known = np.array([s in symbol_ids for s in names], dtype=bool)
    bad = repeat | ~known[src] | ~known[dst]
    if bad.any():
        r = int(bad.argmax())
        a, b = names[src[r]], names[dst[r]]
        if repeat[r]:
            raise DuplicateEdge(f"pair {a}->{b} appears more than once")
        unknown = a if a not in symbol_ids else b
        raise UnknownSymbol(f"result references unknown symbol {unknown!r}")
    return order


# value types a tick's prices are converted in bulk from; anything else,
# bool included, is checked entry by entry
_PLAIN_PRICE_TYPES = frozenset((float, int, np.float64))


def tick_prices(
    symbol_ids: Mapping[str, int], tick: Mapping[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate one tick: the node ids (intp) and float64 prices of its
    symbols, in tick order, as update_prices applies them.

    A tick of known symbols and plain int/float prices is checked in bulk:
    one np.fromiter over the values and one (prices > 0) & (prices < inf)
    test, which NaN fails too. Otherwise, or when the bulk check fails, the
    entries are checked one by one, so the first bad one in tick order
    raises.

    Raises:
        UnknownSymbol: a symbol is not in the graph.
        NonPositivePrice: a price is not a positive finite number (a bool is
            not a price).
    """
    values = tick.values()
    if _PLAIN_PRICE_TYPES.issuperset(map(type, values)):
        try:
            ids = np.fromiter(map(symbol_ids.get, tick), dtype=np.intp, count=len(values))
            prices = np.fromiter(values, dtype=np.float64, count=len(values))
        except (TypeError, OverflowError):  # an unknown symbol, an int beyond float
            pass
        else:
            # false for NaN as well as for 0, negatives and +-inf
            if ((prices > 0.0) & (prices < np.inf)).all():
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

    Never touches topology. Epoch increments by exactly 1. Only the node
    arrays are copied (NodeSnapshot.priced), so the cost does not grow with
    the run; TickStream prices each tick through this function.
    """
    ids, prices = tick_prices(g.symbol_ids, tick)
    epoch = g.epoch + 1
    return CointGraph(g.node_source.priced(ids, prices, epoch), g.columns, epoch)


def neighbors(g: CointGraph, node_id: int) -> list[tuple[CointEdge, int]]:
    """All incident edges (both directions) with the opposite endpoint,
    sorted by neighbor id then edge id."""
    if not 0 <= node_id < g.n_nodes:
        raise UnknownNode(f"node id {node_id} is not in the graph")
    found = [(e, e.dst) for e in map(g.edges.__getitem__, g.out_edges[node_id])]
    found += [(e, e.src) for e in map(g.edges.__getitem__, g.in_edges[node_id])]
    found.sort(key=lambda pair: (pair[1], pair[0].id))
    return found


_NO_ROWS = np.empty(0, dtype=np.intp)


def remove_edges(g: CointGraph, edge_ids: Iterable[int]) -> CointGraph:
    """Drop the given edges (UnknownEdge for an id that is not one); node
    set and prices are untouched. No id gives the same version."""
    return _patch(g, _NO_ROWS, {}, g.columns.rows(edge_ids))


def mark_broken(g: CointGraph, edge_ids: Iterable[int]) -> CointGraph:
    """Flag edges as broken (leash violation observed); UnknownEdge for an
    id that is not an edge. No id gives the same version."""
    return _patch(g, g.columns.rows(edge_ids), {"broken": True})


def _patch(
    g: CointGraph, rows: np.ndarray, values: Mapping[str, object], removed: np.ndarray = _NO_ROWS
) -> CointGraph:
    """g with values written at rows and the rows removed dropped, the one
    writer every edge change goes through: each column it writes or cuts
    is copied once, and every other column is g's own. Nothing to write or
    remove gives g itself.

    rows and removed are disjoint rows of g.columns (EdgeColumns.rows);
    values maps column names to what is written at rows, one value for
    every row or one per row.

    The topology changes only when rows are removed, so g.columns'
    incidence index, once built, is carried over: shared when no row is
    removed (mark_broken, a refit), and otherwise patched
    (Incidence.without), never sorted again. An index g.columns has not
    built is left for the new columns to build on first read.
    """
    columns = g.columns
    if not len(removed) and not (len(rows) and values):
        return g
    keep = np.ones(len(columns), dtype=bool)
    keep[removed] = False
    # the rows' positions once the removed rows are dropped
    rows = rows - np.flatnonzero(~keep).searchsorted(rows)
    out = {}
    for name in _DTYPES:
        column = getattr(columns, name)
        if len(removed):
            column = column[keep]
        elif name in values:
            column = column.copy()
        if name in values:
            column[rows] = values[name]
        out[name] = column
    patched = EdgeColumns(**out)
    index = columns.__dict__.get("incidence")
    if index is not None:
        if len(removed):
            gone = ~keep  # removed may repeat a row
            index = index.without(keep, np.concatenate((columns.src[gone], columns.dst[gone])))
        patched.__dict__["incidence"] = index
    return CointGraph(g.node_source, patched, g.epoch)


def audit_adjacency(g: CointGraph) -> bool:
    """Verify the edge columns, which the adjacency is derived from: ids
    strictly ascending, endpoints in range, no self-loop and no repeated
    (src, dst) pair."""
    c, n = g.columns, g.n_nodes
    ends = np.concatenate((c.src, c.dst))
    pairs = np.sort(c.src * n + c.dst)
    if (
        np.any(c.eid[1:] <= c.eid[:-1])
        or np.any((ends < 0) | (ends >= n))
        or np.any(c.src == c.dst)
        or np.any(pairs[1:] == pairs[:-1])
    ):
        raise RuntimeError("edge columns are not a simple directed graph on the nodes")
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
        "alert_history": [list(run) for run in n.alert_history],
        "last_update_epoch": n.last_update_epoch,
    }


def _edges_to_obj(c: EdgeColumns) -> list[dict]:
    models = zip(*(getattr(c, name).tolist() for name in _MODEL_FIELDS))
    return [
        {"id": eid, "src": src, "dst": dst, "broken": broken, "model": dict(zip(_MODEL_FIELDS, m))}
        for eid, src, dst, broken, m in zip(
            c.eid.tolist(), c.src.tolist(), c.dst.tolist(), c.broken.tolist(), models
        )
    ]


# the JSON name of each type (or types) a field is checked against or holds
_JSON_NAMES = {int: "integer", float: "number", (int, float): "number", str: "string",
               list: "array", dict: "object", bool: "boolean", type(None): "null"}


def _expect(obj, key, types, path):
    """obj[key], checked to be of types (a bool only where types is bool)."""
    try:
        value = obj[key]
    except (KeyError, TypeError):  # no such key, or obj is no JSON object
        raise SchemaViolation(f"{path}.{key}", "missing field") from None
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise SchemaViolation(f"{path}.{key}", f"expected {_JSON_NAMES[types]}, got {got}")
    return value


def _model_from_obj(obj, path, windows: dict[str, str]) -> tuple:
    """The checked CointModel fields of a model object, in _MODEL_FIELDS order;
    its window_id is the first object of that value in windows."""
    floats = []
    for key in ("beta0", "beta1", "resid_mean", "resid_std", "adf_stat"):
        floats.append(_expect(obj, key, (int, float), path))
        if not abs(floats[-1]) <= _FLOAT_MAX:
            raise SchemaViolation(f"{path}.{key}", "must be finite")
    beta0, beta1, resid_mean, resid_std, adf_stat = floats
    pvalue = _expect(obj, "pvalue", (int, float), path)
    if not 0.0 <= pvalue <= 1.0:
        raise SchemaViolation(f"{path}.pvalue", f"must be in [0, 1], got {pvalue}")
    if resid_std <= 0.0:
        raise SchemaViolation(f"{path}.resid_std", f"must be > 0, got {resid_std}")
    window_id = _expect(obj, "window_id", str, path)
    window_id = windows.setdefault(window_id, window_id)
    return beta0, beta1, resid_mean, resid_std, pvalue, adf_stat, window_id


def _node_from_obj(node, i: int, epoch: int, symbols: set[str]) -> SymbolNode:
    """Node i of a graph at epoch, checked; its symbol joins symbols.

    An alert-history item is an [epoch, state] entry (as every file before
    run-length histories) or a [first_epoch, count, state] run; either
    shape may follow the other, and both are merged into maximal runs.
    Runs are checked by their ends, never expanded."""
    path = f"nodes[{i}]"
    node_id = _expect(node, "id", int, path)
    if node_id != i:
        raise SchemaViolation(f"{path}.id", f"ids must be dense, expected {i}, got {node_id}")
    symbol = _expect(node, "symbol", str, path)
    if symbol in symbols:
        raise SchemaViolation(f"{path}.symbol", f"duplicate symbol {symbol!r}")
    symbols.add(symbol)
    if "last_price" not in node:
        raise SchemaViolation(f"{path}.last_price", "missing field")
    price = node["last_price"]
    if price is not None:
        if not isinstance(price, (int, float)) or isinstance(price, bool):
            raise SchemaViolation(f"{path}.last_price", "must be a number or null")
        if not 0 < price <= _FLOAT_MAX:
            raise SchemaViolation(f"{path}.last_price", f"must be positive, got {price}")
    state = _expect(node, "alert_state", str, path)
    if state not in (CLEAR, ALERTED):
        raise SchemaViolation(f"{path}.alert_state", f"unknown state {state!r}")
    history: list[tuple[int, int, str]] = []
    items = _expect(node, "alert_history", list, path)
    for k, item in enumerate(items):
        if isinstance(item, list) and len(item) == 3:
            first, count, item_state = item
            if (
                type(first) is not int  # not a bool either
                or type(count) is not int
                or item_state not in (CLEAR, ALERTED)
            ):
                raise SchemaViolation(
                    f"{path}.alert_history[{k}]", "expected [first_epoch, count, state]"
                )
            if count < 1:
                raise SchemaViolation(
                    f"{path}.alert_history[{k}]", f"count must be at least 1, got {count}"
                )
        elif (
            not isinstance(item, list)
            or len(item) != 2
            or type(item[0]) is not int  # not a bool either
            or item[1] not in (CLEAR, ALERTED)
        ):
            raise SchemaViolation(f"{path}.alert_history[{k}]", "expected [epoch, state]")
        else:
            (first, item_state), count = item, 1
        if history and first < history[-1][0] + history[-1][1]:
            raise SchemaViolation(
                f"{path}.alert_history[{k}]", "epochs must be strictly increasing"
            )
        # the module's state strings, not one per item
        _append_run(history, first, count, CLEAR if item_state == CLEAR else ALERTED)
    end = history[-1][0] + history[-1][1] - 1 if history else -1
    if end > epoch:
        raise SchemaViolation(
            f"{path}.alert_history[{len(items) - 1}]", f"epoch {end} is after graph epoch {epoch}"
        )
    updated = _expect(node, "last_update_epoch", int, path)
    if not -1 <= updated <= epoch:  # -1: never priced
        raise SchemaViolation(
            f"{path}.last_update_epoch", f"must be in [-1, graph epoch {epoch}], got {updated}"
        )
    return SymbolNode(i, symbol, price, state, tuple(history), updated)


def from_json_obj(obj) -> CointGraph:
    """Rebuild a graph from the export schema, checking each field in the
    walk that reads it; every field export writes is required. The checks
    run in document order (epoch, each node, then each edge), so a document
    with several faults raises a SchemaViolation naming the first."""
    epoch = _expect(obj, "epoch", int, "$")
    if not 0 <= epoch <= MAX_EPOCH:
        raise SchemaViolation("$.epoch", f"must be in [0, 2**62], got {epoch}")
    symbols: set[str] = set()
    node_objs = _expect(obj, "nodes", list, "$")
    nodes = tuple(_node_from_obj(node, i, epoch, symbols) for i, node in enumerate(node_objs))
    rows: list[tuple] = []  # one per edge, in _DTYPES order
    seen_ids: set[int] = set()
    seen_pairs: set[tuple[int, int]] = set()
    windows: dict[str, str] = {}  # one str per window id, as a build shares it
    for i, edge in enumerate(_expect(obj, "edges", list, "$")):
        path = f"edges[{i}]"
        eid = _expect(edge, "id", int, path)
        if not -(2**63) <= eid < 2**63:
            raise SchemaViolation(f"{path}.id", f"must fit in int64, got {eid}")
        if eid in seen_ids:
            raise SchemaViolation(f"{path}.id", f"duplicate edge id {eid}")
        seen_ids.add(eid)
        src = _expect(edge, "src", int, path)
        dst = _expect(edge, "dst", int, path)
        for name, value in (("src", src), ("dst", dst)):
            if not 0 <= value < len(nodes):
                raise SchemaViolation(f"{path}.{name}", f"node id {value} out of range")
        if src == dst:
            raise SchemaViolation(f"{path}.dst", "self-loops are not allowed")
        if (src, dst) in seen_pairs:
            raise SchemaViolation(f"{path}", f"duplicate edge {src}->{dst}")
        seen_pairs.add((src, dst))
        broken = _expect(edge, "broken", bool, path)
        model = _model_from_obj(_expect(edge, "model", dict, path), f"{path}.model", windows)
        rows.append((eid, src, dst, *model, broken))
    columns = dict(zip(_DTYPES, zip(*rows) if rows else [()] * len(_DTYPES)))
    return CointGraph(NodeSnapshot.of_nodes(nodes), EdgeColumns.of_lists(**columns), epoch)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# one edge of the canonical JSON, keys sorted: broken, dst, id, the model's
# floats and quoted window id, src
_EDGE_TEMPLATE = (
    '{"broken":%s,"dst":%d,"id":%d,"model":{"adf_stat":%r,"beta0":%r,"beta1":%r,'
    '"pvalue":%r,"resid_mean":%r,"resid_std":%r,"window_id":%s},"src":%d}'
)
_TEMPLATE_FLOATS = tuple(sorted(_MODEL_FLOATS))


def _edges_json(c: EdgeColumns) -> str | None:
    """The edges' JSON array, byte for byte as json.dumps writes
    _edges_to_obj(c) with sorted keys and no whitespace, from
    _EDGE_TEMPLATE; None when a value is one the template cannot vouch
    for: a non-finite model float (json.dumps writes NaN or Infinity) or a
    window id that is not a str; export then writes the edges by json.dumps.

    ids, endpoints and broken flags are ints and bools by their dtypes,
    and a finite float's JSON is its repr, as json.dumps writes it; each
    distinct window id is quoted by json.dumps once.
    """
    window_ids = c.window_id.tolist()
    if not all(type(w) is str for w in window_ids):
        return None
    floats = [getattr(c, name) for name in _TEMPLATE_FLOATS]
    if not all(np.isfinite(column).all() for column in floats):
        return None
    quoted = {w: json.dumps(w) for w in set(window_ids)}
    rows = zip(
        map(("false", "true").__getitem__, c.broken.tolist()),
        c.dst.tolist(),
        c.eid.tolist(),
        *(column.tolist() for column in floats),
        map(quoted.__getitem__, window_ids),
        c.src.tolist(),
    )
    return "[" + ",".join([_EDGE_TEMPLATE % row for row in rows]) + "]"


def export(g: CointGraph, format: str = FORMAT_JSON) -> bytes:
    """Serialize the graph.

    JSON: canonical (sorted keys, no whitespace) so save/load/save is
    byte-stable: {"edges":E,"epoch":N,"nodes":V} and a newline, where N and
    V are the json.dumps of the epoch and of the nodes' _node_to_obj
    objects, and E that of the edges' _edges_to_obj objects, written from a
    template (_edges_json), or by json.dumps where the template declines.
    DOT: one node statement per symbol and one edge statement per edge
    with penwidth = 1/resid_std (tighter pairs draw thicker) and
    style=dashed on broken edges.
    """
    if format == FORMAT_JSON:
        canonical = {"sort_keys": True, "separators": (",", ":")}
        edges = _edges_json(g.columns) or json.dumps(_edges_to_obj(g.columns), **canonical)
        nodes = json.dumps([_node_to_obj(n) for n in g.nodes], **canonical)
        text = '{"edges":%s,"epoch":%s,"nodes":%s}' % (edges, json.dumps(g.epoch), nodes)
        return text.encode("utf-8") + b"\n"
    if format == FORMAT_DOT:
        lines = ["digraph cointegration {"]
        for symbol, nid in g.symbol_ids.items():
            lines.append(f"  {nid} [label={_dot_quote(symbol)}];")
        c = g.columns
        for src, dst, resid_std, broken in zip(
            c.src.tolist(), c.dst.tolist(), c.resid_std.tolist(), c.broken.tolist()
        ):
            width = 1.0 / resid_std if resid_std > 0 else 0.0
            attrs = [f"penwidth={width:.6g}"]
            if broken:
                attrs.append("style=dashed")
            lines.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")

