"""Seeded synthetic universes and shock scenarios for tests and demos.

Everything here is deterministic given the seed. The planted universe puts
known structure in the data (clusters driven by one latent walk, plus
independent walkers) so graph construction can be judged against ground
truth; the tick builders construct prices whose leash deviations are
controlled by design (in-band baselines, exact-magnitude node shocks,
turbulent days breaking a known edge subset).

A planted graph's models come from the scan kernel (coint.scan_pairs), one
cluster at a time, so each edge's model, pvalue and adf_stat included, is
bit for bit the one `cointwatch build` fits for that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping, Sequence

import numpy as np

from . import graph as graphmod
from .coint import CointModel, PairResult, PriceSeries, coint_fit, scan_pairs
from .errors import CointwatchError, DegeneratePair, ScenarioError
from .graph import CointGraph, neighbors
from .pipeline import PriceTable, WindowSlice, slice_window
from .stats import ols_fit

BASE_LEVEL = 200.0
CLUSTER_NOISE = 1.0
DEFAULT_START = date(2015, 1, 2)

# baseline_tick guarantees every edge deviation stays under this many sigmas
# so that shock margins computed on top of it are airtight
BASELINE_GUARD = 0.9


def _calendar(n_days: int, start: date) -> tuple[date, ...]:
    return tuple(start + timedelta(days=i) for i in range(n_days))


@dataclass(frozen=True)
class PlantedUniverse:
    table: PriceTable
    clusters: tuple[tuple[str, ...], ...]
    independents: tuple[str, ...]


def planted_universe(
    n_clusters: int = 1,
    cluster_size: int = 5,
    n_independent: int = 5,
    n_days: int = 250,
    seed: int = 0,
    start: date = DEFAULT_START,
) -> PlantedUniverse:
    """Generate a universe with known cointegration structure.

    Each cluster is driven by its own latent random walk: member prices are
    independent-noise affine copies of the latent level, so every ordered
    within-cluster pair is cointegrated by construction. Independent symbols
    are plain random walks tied to nothing.
    """
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    clusters: list[tuple[str, ...]] = []
    for c in range(n_clusters):
        latent = BASE_LEVEL + np.cumsum(rng.standard_normal(n_days))
        members = []
        for i in range(cluster_size):
            symbol = f"C{c}S{i:02d}"
            a = rng.uniform(10.0, 60.0)
            b = rng.uniform(0.5, 2.0)
            columns[symbol] = a + b * latent + CLUSTER_NOISE * rng.standard_normal(n_days)
            members.append(symbol)
        clusters.append(tuple(members))
    independents = []
    for i in range(n_independent):
        symbol = f"X{i:02d}"
        columns[symbol] = BASE_LEVEL + np.cumsum(rng.standard_normal(n_days))
        independents.append(symbol)

    symbols = tuple(sorted(columns))
    prices = np.column_stack([columns[s] for s in symbols])
    if prices.min() <= 0.0:
        raise ScenarioError("generated universe produced a non-positive price; adjust scale")
    table = PriceTable(calendar=_calendar(n_days, start), symbols=symbols, prices=prices)
    return PlantedUniverse(table=table, clusters=tuple(clusters), independents=tuple(independents))


def universe_series(table: PriceTable) -> WindowSlice:
    """Full-range window slice of a (gap-free) generated table."""
    return slice_window(table, table.calendar[0], table.calendar[-1])


def planted_graph(series: Sequence[PriceSeries], clusters: Sequence[Sequence[str]]) -> CointGraph:
    """Fit and wire every ordered within-cluster pair, bypassing admission.

    Produces a graph whose topology is the planted ground truth (all
    within-cluster ordered pairs) with genuinely fitted models, which is
    what shock-scenario tests need: known structure, real numbers.

    Each cluster is fitted by the scan kernel (scan_pairs), so an edge's
    model is the one `cointwatch build` fits for that pair, pvalue and
    adf_stat included. A pair the scan skips goes to coint_fit: a
    degenerate pair is dropped, any other error raises. A cluster the scan
    declines (an unknown or repeated symbol, members of different windows or
    lengths, a fit raising ValueError) is fitted pair by pair, so it raises
    the error the loop meets first.
    """
    by_symbol = {p.symbol: p for p in series}
    results: list[PairResult] = []
    for cluster in clusters:
        fitted = _scanned_models(by_symbol, cluster)
        for src in cluster:
            for dst in cluster:
                if src == dst:
                    continue
                model = fitted.get((src, dst))
                if model is None:
                    try:
                        model = coint_fit(by_symbol[src], by_symbol[dst])
                    except DegeneratePair:
                        continue
                results.append(PairResult(src, dst, model, admitted=True))
    return graphmod.build_graph(results, epsilon=1.0, symbols=[p.symbol for p in series])


def _scanned_models(
    by_symbol: Mapping[str, PriceSeries], cluster: Sequence[str]
) -> dict[tuple[str, str], CointModel]:
    """The scan's model of each ordered pair of the cluster, by (src, dst);
    empty when a member is unknown or the scan declines the cluster (fewer
    than two members, a repeated symbol, misaligned members, or a fit's
    ValueError)."""
    members = [by_symbol.get(s) for s in cluster]
    if None in members:
        return {}
    try:
        scan = scan_pairs(members)
    except (CointwatchError, ValueError):
        return {}
    return {(p.src_symbol, p.dst_symbol): p.model for p in scan.pairs}


def _role_coefficient(edge, node_id: int) -> float:
    """How much one unit of node price moves the edge residual."""
    return 1.0 if edge.dst == node_id else abs(edge.model.beta1)


def baseline_tick(g: CointGraph, fallback: Mapping[str, float]) -> dict[str, float]:
    """Solve for a tick whose every edge deviation is deep inside the leash.

    Weighted least squares over node prices: each edge contributes the
    constraint (dst - beta1*src - beta0 - resid_mean)/resid_std = 0, plus a
    weak anchor pulling every node toward its fallback price (which also
    pins isolated nodes). Raises if the solution leaves any edge beyond
    BASELINE_GUARD sigmas — planted graphs stay well under it.
    """
    n, c = g.n_nodes, g.columns
    edges = np.arange(len(c))
    anchor = 1e-3
    # one row per edge in id order, then one anchor row per node
    design = np.zeros((len(c) + n, n))
    design[edges, c.dst] = 1.0 / c.resid_std
    design[edges, c.src] = -c.beta1 / c.resid_std
    design[len(c) + np.arange(n), np.arange(n)] = anchor
    symbols = [node.symbol for node in g.nodes]
    fallbacks = np.array([float(fallback[s]) for s in symbols])
    target = np.concatenate(((c.beta0 + c.resid_mean) / c.resid_std, anchor * fallbacks))
    prices, *_ = np.linalg.lstsq(design, target, rcond=None)

    sigmas = np.abs(prices[c.dst] - c.beta0 - c.beta1 * prices[c.src] - c.resid_mean) / c.resid_std
    beyond = np.flatnonzero(sigmas > BASELINE_GUARD)
    if len(beyond):
        raise ScenarioError(
            f"baseline tick leaves edge {c.eid[beyond[0]]} at {sigmas[beyond[0]]:.2f} sigmas; "
            "graph is too inconsistent for scenario generation"
        )
    if prices.min() <= 0.0:
        raise ScenarioError("baseline tick produced a non-positive price")
    return dict(zip(symbols, prices.tolist()))


def jittered_tick(
    g: CointGraph,
    base: Mapping[str, float],
    seed: int,
    budget_sigmas: float = 1.0,
) -> dict[str, float]:
    """Perturb a baseline tick while keeping every edge in-band.

    Each node moves at most half the budget against its most sensitive
    incident edge, so no edge deviation shifts by more than budget_sigmas
    from the baseline (which itself is under BASELINE_GUARD). A node
    without edges moves at most 0.5% of its price. One uniform draw per
    node, in node order.
    """
    rng = np.random.default_rng(seed)
    symbols = [node.symbol for node in g.nodes]
    price = np.array([base[s] for s in symbols], dtype=np.float64)
    draw = rng.uniform(-1.0, 1.0, size=len(symbols))
    # per node, the smallest resid_std / role coefficient over its edges
    # (_role_coefficient: 1 where the node is dst, |beta1| where it is src)
    cols = g.columns
    limit = np.full(len(symbols), np.inf)
    np.minimum.at(limit, cols.src, cols.resid_std / np.maximum(np.abs(cols.beta1), 1e-12))
    np.minimum.at(limit, cols.dst, cols.resid_std)
    wired = np.zeros(len(symbols), dtype=bool)
    wired[cols.src] = True
    wired[cols.dst] = True
    delta = draw * 0.005 * price
    delta[wired] = draw[wired] * 0.5 * budget_sigmas * limit[wired]
    tick = dict(base)
    tick.update(zip(symbols, (price + delta).tolist()))
    return tick


def shock_delta(g: CointGraph, node_id: int, sigmas: float, break_all: bool) -> float:
    """Price delta for one node: large enough to push every incident edge
    beyond `sigmas` (break_all) or small enough that even the most
    sensitive incident edge moves exactly `sigmas` (break_none)."""
    incident = neighbors(g, node_id)
    if not incident:
        raise ValueError(f"node {node_id} has no incident edges to shock")
    per_edge = [
        sigmas * e.model.resid_std / max(_role_coefficient(e, node_id), 1e-12)
        for e, _ in incident
    ]
    return max(per_edge) if break_all else min(per_edge)


def shock_tick(
    g: CointGraph,
    base: Mapping[str, float],
    symbol: str,
    sigmas: float = 6.0,
    break_all: bool = True,
) -> tuple[dict[str, float], tuple[int, ...]]:
    """Shock one symbol on top of a baseline tick.

    With break_all the returned expected-broken set is every edge incident
    to the node (each is pushed at least `sigmas` minus the baseline guard
    past its mean); otherwise the shock tops out at `sigmas` on the most
    sensitive edge and the expected set is empty.
    """
    node = g.node_of(symbol)
    delta = shock_delta(g, node.id, sigmas, break_all)
    tick = dict(base)
    tick[symbol] = tick[symbol] + delta
    if break_all:
        expected = tuple(sorted(e.id for e, _ in neighbors(g, node.id)))
    else:
        expected = ()
    return tick, expected


def turbulent_tick(
    g: CointGraph,
    base: Mapping[str, float],
    fraction: float = 0.25,
    seed: int = 0,
    sigmas: float = 6.0,
) -> tuple[dict[str, float], tuple[int, ...]]:
    """Break a seeded subset of roughly `fraction` of all edges at once.

    Picks a seeded independent set of nodes (no two adjacent, so their
    incident edge sets are disjoint and shocks cannot cancel) until the
    union of incident edges covers the requested fraction, then applies a
    break-all shock to each. Returns the tick and the exact broken set.
    """
    if not g.edges:
        raise ValueError("graph has no edges to break")
    rng = np.random.default_rng(seed)
    order = list(range(g.n_nodes))
    rng.shuffle(order)
    target = fraction * g.n_edges
    picked: list[int] = []
    blocked: set[int] = set()
    covered: set[int] = set()
    for nid in order:
        if len(covered) >= target:
            break
        if nid in blocked:
            continue
        incident = neighbors(g, nid)
        if not incident:
            continue
        picked.append(nid)
        blocked.add(nid)
        for e, nbr in incident:
            blocked.add(nbr)
            covered.add(e.id)
    if len(covered) < target:
        raise ScenarioError(
            f"could not cover {fraction:.0%} of edges with an independent node set "
            f"(got {len(covered)}/{g.n_edges})"
        )
    tick = dict(base)
    for nid in picked:
        tick[g.nodes[nid].symbol] += shock_delta(g, nid, sigmas, break_all=True)
    return tick, tuple(sorted(covered))


@dataclass(frozen=True)
class RecomputeScenario:
    """A pair fit on one window, an alert-raising tick, and the trailing
    refit window ending at that tick."""

    fit_x: PriceSeries
    fit_y: PriceSeries
    tick: dict[str, float]
    refit_window: tuple[PriceSeries, PriceSeries]


def transient_scenario(seed: int, n: int = 400, spike_sigmas: float = 6.0) -> RecomputeScenario:
    """A cointegrated pair hit by a one-tick spike that then reverts.

    The refit window (trailing n ticks ending at the spike) is dominated by
    healthy data, so the refit should re-admit the pair.
    """
    rng = np.random.default_rng(seed)
    x = BASE_LEVEL + np.cumsum(rng.standard_normal(n + 1))
    a = rng.uniform(10.0, 60.0)
    b = rng.uniform(0.5, 2.0)
    y = a + b * x + rng.standard_normal(n + 1)
    fit_x = PriceSeries("SRC", x[:n], "fit")
    fit_y = PriceSeries("DST", y[:n], "fit")
    model = ols_fit(fit_x.series, fit_y.series)
    spike_y = model.beta0 + model.beta1 * x[n] + model.resid_mean + spike_sigmas * model.resid_std
    tick = {"SRC": float(x[n]), "DST": float(spike_y)}
    refit_x = PriceSeries("SRC", x[1 : n + 1], "refit")
    refit_y = PriceSeries("DST", np.append(y[1:n], spike_y), "refit")
    return RecomputeScenario(fit_x, fit_y, tick, (refit_x, refit_y))


def regime_break_scenario(
    seed: int,
    n: int = 400,
    drift: float = 0.3,
    old_fraction: float = 0.2,
) -> RecomputeScenario:
    """A pair whose dst abandons the relation and walks off with drift.

    The refit window mixes the tail of the old regime (old_fraction) with
    the walk-off, so the refit should reject and the edge should be removed.
    """
    rng = np.random.default_rng(seed)
    new_len = int(round((1.0 - old_fraction) * n))
    total = n + new_len
    x = BASE_LEVEL + np.cumsum(rng.standard_normal(total))
    a = rng.uniform(10.0, 60.0)
    b = rng.uniform(0.5, 2.0)
    y = a + b * x + rng.standard_normal(total)
    walk = drift * np.arange(1, new_len + 1) + np.cumsum(rng.standard_normal(new_len))
    y[n:] = y[n - 1] + walk
    if y.min() <= 0.0 or x.min() <= 0.0:
        y = y - min(0.0, y.min()) + 1.0
        x = x - min(0.0, x.min()) + 1.0
    fit_x = PriceSeries("SRC", x[:n], "fit")
    fit_y = PriceSeries("DST", y[:n], "fit")
    tick = {"SRC": float(x[total - 1]), "DST": float(y[total - 1])}
    refit_x = PriceSeries("SRC", x[total - n :], "refit")
    refit_y = PriceSeries("DST", y[total - n :], "refit")
    return RecomputeScenario(fit_x, fit_y, tick, (refit_x, refit_y))


def pair_graph(fit_x: PriceSeries, fit_y: PriceSeries) -> CointGraph:
    """Two-node graph with the single fitted edge SRC -> DST."""
    model = coint_fit(fit_x, fit_y)
    result = PairResult(fit_x.symbol, fit_y.symbol, model, admitted=True)
    return graphmod.build_graph([result], epsilon=1.0, symbols=[fit_x.symbol, fit_y.symbol])
