"""The per-node reference the tick path is tested against.

The paper's monitor is a synchronous vertex-centric job (the Pregel model:
Malewicz et al., "Pregel: A System for Large-Scale Graph Processing",
SIGMOD 2010): fresh nodes broadcast their prices along incident edges
(price_broadcast_messages), each node checks the edges it received a price
for (AlertVertexProgram.compute), and the per-node outcomes are folded into
one report (assemble_report). reference_tick runs that job as a plain loop
over SymbolNodes; the package runs it as one array pass
(alert.tick_kernel). update_prices and with_nodes are the node-by-node
price update and node publish the loop reads and writes, each node rebuilt
as a SymbolNode and the version's store made from them
(NodeSnapshot.of_nodes), kept apart from the package's array price path
so the two can be compared.
replace_models swaps in models by edge id through graph._patch, as the
refits publish theirs; nothing in the package calls it, and the tests use
it to plant models. is_fresh and node_of read one node of a version (the
kernel computes freshness for all nodes at once), and graph.export's JSON
bytes are the canonical json.dumps of to_json_obj's document.

replay drives the whole reference run, tick after tick; the tests that
compare tick_loop with the reference go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from cointwatch import graph as graphmod
from cointwatch.alert import (
    AlertConfig,
    AlertReport,
    HealthFn,
    RecomputeSummary,
    global_reduce,
    leash_check,
    selective_recompute,
)
from cointwatch.coint import CointModel, PriceSeries
from cointwatch.errors import UnknownNode
from cointwatch.graph import (
    _MODEL_FIELDS,
    ALERTED,
    CLEAR,
    CointGraph,
    NodeSnapshot,
    SymbolNode,
    _edges_to_obj,
    _node_to_obj,
    _patch,
    mark_broken,
    neighbors,
    tick_prices,
)


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
    return CointGraph(NodeSnapshot.of_nodes(nodes), g.columns, epoch)


def with_nodes(g: CointGraph, new_nodes: Mapping[int, SymbolNode]) -> CointGraph:
    """Publish a version with some nodes replaced (alert bookkeeping)."""
    if not new_nodes:
        return g
    for nid in new_nodes:
        if not 0 <= nid < g.n_nodes:
            raise UnknownNode(f"node id {nid} is not in the graph")
    nodes = tuple(new_nodes.get(i, n) for i, n in enumerate(g.nodes))
    return CointGraph(NodeSnapshot.of_nodes(nodes), g.columns, g.epoch)


def replace_models(g: CointGraph, models: Mapping[int, CointModel]) -> CointGraph:
    """Swap in refit models, keyed by edge id, and clear their broken flags;
    UnknownEdge for an id that is not an edge. No model gives the same
    version."""
    values = {name: [getattr(m, name) for m in models.values()] for name in _MODEL_FIELDS}
    return _patch(g, g.columns.rows(models), dict(values, broken=False))


def node_of(g: CointGraph, symbol: str) -> SymbolNode:
    return g.nodes[g.node_id(symbol)]


def is_fresh(g: CointGraph, node_id: int) -> bool:
    nodes = g.node_source
    fresh = nodes.updated.item(node_id) == g.epoch
    return fresh and not math.isnan(nodes.price.item(node_id))


def to_json_obj(g: CointGraph) -> dict:
    return {
        "epoch": g.epoch,
        "nodes": [_node_to_obj(n) for n in g.nodes],
        "edges": _edges_to_obj(g.columns),
    }


def price_broadcast_messages(g: CointGraph) -> list[dict[int, float]]:
    """Every fresh node sends its last price along every incident edge
    (stale nodes stay silent); returns, per node id, the {sender id: price}
    map it receives."""
    inboxes: list[dict[int, float]] = [{} for _ in range(g.n_nodes)]
    for eid in sorted(g.edges):
        e = g.edges[eid]
        if is_fresh(g, e.src):
            inboxes[e.dst][e.src] = g.nodes[e.src].last_price
        if is_fresh(g, e.dst):
            inboxes[e.src][e.dst] = g.nodes[e.dst].last_price
    return inboxes


@dataclass(frozen=True)
class AlertVertexState:
    """Per-node outcome of one tick's checks."""

    node: graphmod.SymbolNode
    failed: tuple[tuple[int, float], ...] = ()
    checked: int = 0
    skipped: int = 0
    evaluated: bool = False


class AlertVertexProgram:
    """Each node leash-checks every incident edge for which both endpoint
    prices are fresh this epoch; any failing check raises its local alert.

    The program is bound to one published graph version for topology and
    models; neighbor prices are passed in."""

    def __init__(self, g: CointGraph, config: AlertConfig):
        self.graph = g
        self.config = config

    def compute(
        self, node: graphmod.SymbolNode, prices: Mapping[int, float], epoch: int
    ) -> AlertVertexState:
        """The node's outcome, given its fresh neighbours' prices by id."""
        self_fresh = is_fresh(self.graph, node.id)
        checked = 0
        skipped = 0
        failed: list[tuple[int, float]] = []
        for edge, nbr in neighbors(self.graph, node.id):
            if not self_fresh or nbr not in prices:
                skipped += 1
                continue
            if edge.src == node.id:
                x_price, y_price = node.last_price, prices[nbr]
            else:
                x_price, y_price = prices[nbr], node.last_price
            alert, deviation = leash_check(edge.model, x_price, y_price, self.config.sigma_k)
            checked += 1
            if alert:
                failed.append((edge.id, deviation))

        evaluated = checked > 0
        if evaluated:
            if failed:
                new_alert = ALERTED
            elif self.config.latch_alerts and node.alert_state == ALERTED:
                new_alert = ALERTED
            else:
                new_alert = CLEAR
            history = list(node.alert_history)
            graphmod._append_run(history, epoch, 1, new_alert)
            node = replace(node, alert_state=new_alert, alert_history=tuple(history))
        return AlertVertexState(
            node=node,
            failed=tuple(failed),
            checked=checked,
            skipped=skipped,
            evaluated=evaluated,
        )


def assemble_report(
    g: CointGraph,
    states: Sequence[AlertVertexState],
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> AlertReport:
    """Merge per-node outcomes into the epoch report (each broken edge
    recorded once, both observing endpoints alerted)."""
    broken: dict[int, float] = {}
    node_alerts: list[int] = []
    checked = 0
    skipped = 0
    for state in states:
        checked += state.checked
        skipped += state.skipped
        if state.failed:
            node_alerts.append(state.node.id)
        for eid, deviation in state.failed:
            broken.setdefault(eid, deviation)
    partial = AlertReport(
        epoch=g.epoch,
        node_alerts=tuple(sorted(node_alerts)),
        broken_edges=tuple(sorted(broken.items())),
        global_alert=False,
        edges_checked=checked,
        edges_skipped_stale=skipped,
    )
    return replace(partial, global_alert=global_reduce(g, partial, config, health_fn))


def reference_tick(
    g: CointGraph,
    config: AlertConfig,
    health_fn: HealthFn | None = None,
) -> tuple[list[AlertVertexState], AlertReport]:
    """One tick's checks node by node on a priced graph version: each node
    checks its neighbourhood against its fresh neighbours' prices.

    Slow; kept as the oracle that tick_kernel must match. Returns the
    per-node states (indexed by node id) and the epoch report.
    """
    program = AlertVertexProgram(g, config)
    inboxes = price_broadcast_messages(g)
    states = [program.compute(node, inboxes[node.id], g.epoch) for node in g.nodes]
    return states, assemble_report(g, states, config, health_fn)


def replay(
    g: CointGraph,
    ticks: Iterable[Mapping[str, float]],
    config: AlertConfig,
    history: Sequence[PriceSeries] | None = None,
    health_fn: HealthFn | None = None,
) -> Iterator[tuple[AlertReport, RecomputeSummary | None, CointGraph]]:
    """The reference run: per tick, update_prices, reference_tick,
    with_nodes for the evaluated nodes and mark_broken for the broken
    edges; yields (report, refit summary or None, graph version).

    With a history, it is kept as one Python list per history symbol (graph
    symbols and the rest alike): after each tick every list takes its
    node's last price (a stale node carries its price forward, a symbol the
    graph lacks or a node never priced repeats its previous value) and
    drops its oldest, and the broken edges are refit with
    selective_recompute over the full window of every symbol.
    """
    columns = {p.symbol: list(p.values) for p in history or ()}
    for tick in ticks:
        g = update_prices(g, tick)
        states, report = reference_tick(g, config, health_fn)
        g = with_nodes(g, {s.node.id: s.node for s in states if s.evaluated})
        broken = [eid for eid, _ in report.broken_edges]
        g = mark_broken(g, broken)
        summary = None
        if history:
            for symbol, col in columns.items():
                price = node_of(g, symbol).last_price if symbol in g.symbol_ids else None
                col.append(col[-1] if price is None else price)
                del col[0]
            if broken:
                wid = f"trailing-{len(history[0])}@{g.epoch}"
                window = [PriceSeries(symbol, col, wid) for symbol, col in columns.items()]
                g, summary = selective_recompute(g, broken, window, config)
        yield report, summary, g
