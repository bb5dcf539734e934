"""Seeded synthetic universes and tick scenarios: what `cointwatch gen`
writes and what the benchmark (perfbench/) sets up its workloads from.

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

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import graph as graphmod
from .coint import PriceSeries, scan_pairs
from .errors import ScenarioError, UnknownSymbol
from .graph import CointGraph, neighbors
from .pipeline import PriceTable, WindowSlice, slice_window
from .stats import one_blas_thread

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

    Each cluster of two or more members is fitted by one scan (scan_pairs),
    so an edge's model is the one `cointwatch build` fits for that pair,
    pvalue and adf_stat included. A pair the scan skips as degenerate
    (DegeneratePair: zero residual spread) is dropped. Every cluster's scan
    columns, mapped to the series' indices, go to one build_graph call as
    PairColumns; no per-pair object is made.

    Raises:
        UnknownSymbol: a cluster names a symbol outside the series.
        ValueError: a cluster names a symbol twice.
        Either names the cluster's index and the first such member, and is
        raised before any pair of that cluster is fitted.
        MisalignedCalendar: a cluster's members differ in window or length
            (the scan's alignment check, as `cointwatch build` reports it).
        ScenarioError: the scan skips a pair for any other reason, naming
            the cluster, the pair and the scan's reason.
    """
    by_symbol = {p.symbol: p for p in series}
    symbols = [p.symbol for p in series]
    index = {s: i for i, s in enumerate(symbols)}
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty((0, 6)), np.empty(0, object))]
    for k, cluster in enumerate(clusters):
        seen: set[str] = set()
        for symbol in cluster:
            if symbol not in by_symbol:
                raise UnknownSymbol(f"cluster {k}: symbol {symbol!r} is not in the series")
            if symbol in seen:
                raise ValueError(f"cluster {k}: symbol {symbol!r} appears more than once")
            seen.add(symbol)
        if len(cluster) < 2:
            continue
        scan = scan_pairs([by_symbol[s] for s in cluster])
        for skip in scan.skipped:
            if not skip.reason.startswith("DegeneratePair:"):
                pair = f"{skip.src_symbol}->{skip.dst_symbol}"
                raise ScenarioError(f"cluster {k}: pair {pair}: {skip.reason}")
        members = np.array([index[s] for s in cluster], dtype=np.intp)
        window_ids = np.full(len(scan.src), scan.window_id, dtype=object)
        parts.append((members[scan.src], members[scan.dst], scan.fields, window_ids))
    src, dst, fields, window_ids = map(np.concatenate, zip(*parts))
    columns = graphmod.PairColumns(symbols, src, dst, fields, window_ids)
    return graphmod.build_graph(columns, epsilon=1.0, symbols=symbols)


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

    The problem A p ~ b is solved through its normal equations A'A p = A'b
    (Björck, Numerical Methods for Least Squares Problems, 1996, ch. 2):
    the n x n matrix A'A and the vector A'b are summed straight from the
    edge columns, so no (edges + nodes) x n design is built; the cost is
    O(E + n^2) memory and O(E + n^3) time. Squaring the design squares its
    condition number. The anchor adds anchor^2 to every diagonal entry,
    which keeps A'A positive definite and its condition number at most its
    largest eigenvalue over anchor^2. A direction the edges leave free (a
    component that is one directed edge, say) is held by the anchor alone,
    and as resid_std shrinks rounding in A'A erodes that hold: on one
    directed edge the prices lie 1e-6 (relative) from lstsq's at resid_std
    1e-2, and near 1e-6 the system is singular and refused. The edges
    themselves stay in band; the guard checks every one. The sums run in a
    fixed order (np.bincount adds its weights in input order) and the solve
    runs on one BLAS thread (stats.one_blas_thread), since a solve split
    over threads rounds differently; so a graph's prices are the same bits
    on every call and under any BLAS thread count.

    Raises:
        ScenarioError: the graph has no nodes, fallback has no price for a
            graph symbol (naming the first in node order), the system has
            no finite solution, or the solution leaves an edge beyond
            BASELINE_GUARD sigmas or a price non-positive.
    """
    n, c = g.n_nodes, g.columns
    if not n:
        raise ScenarioError("graph has no nodes to price")
    symbols = list(g.symbol_ids)
    try:
        fallbacks = np.array([float(fallback[s]) for s in symbols])
    except KeyError as exc:
        raise ScenarioError(f"no fallback price for graph symbol {exc.args[0]!r}") from None
    anchor = 1e-3
    # a model far from unit scale can overflow the sums (a resid_std below
    # ~1e-154 squares past float64's range) or leave the system singular to
    # working precision; the checks below refuse such a result
    with np.errstate(all="ignore"):
        # an edge's design row: 1/resid_std at dst, -beta1/resid_std at src;
        # its target (beta0 + resid_mean)/resid_std
        w_dst = 1.0 / c.resid_std
        w_src = -c.beta1 / c.resid_std
        target = (c.beta0 + c.resid_mean) / c.resid_std
        cross = w_dst * w_src
        nodes = np.arange(n)
        # A'A and A'b as sums over the design's entries: the edges' terms,
        # then each node's anchor row (anchor at the node, target anchor *
        # fallback)
        gram = np.bincount(
            np.concatenate((c.dst * (n + 1), c.src * (n + 1), c.dst * n + c.src,
                            c.src * n + c.dst, nodes * (n + 1))),
            np.concatenate((w_dst * w_dst, w_src * w_src, cross, cross,
                            np.full(n, anchor * anchor))),
            minlength=n * n,
        ).reshape(n, n)
        rhs = np.bincount(
            np.concatenate((c.dst, c.src, nodes)),
            np.concatenate((w_dst * target, w_src * target, anchor * anchor * fallbacks)),
            minlength=n,
        )
        try:
            with one_blas_thread():
                prices = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:  # singular to working precision: no solution
            prices = np.full(n, np.nan)
        deviations = prices[c.dst] - c.beta0 - c.beta1 * prices[c.src] - c.resid_mean
        sigmas = np.abs(deviations) / c.resid_std
    if not np.isfinite(prices).all():
        raise ScenarioError(
            "baseline tick has no finite solution: a model or fallback price is out of range"
        )
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
    return next(jittered_ticks(g, base, [seed], budget_sigmas))


def jittered_ticks(
    g: CointGraph,
    base: Mapping[str, float],
    seeds: Iterable[int],
    budget_sigmas: float = 1.0,
) -> Iterator[dict[str, float]]:
    """jittered_tick(g, base, seed, budget_sigmas) for each seed in turn,
    drawn as it is asked for; the per-node limits, which depend on the graph
    alone, are computed once."""
    symbols = list(g.symbol_ids)
    price = np.array([base[s] for s in symbols], dtype=np.float64)
    # per node, the smallest resid_std / role coefficient over its edges
    # (_role_coefficient: 1 where the node is dst, |beta1| where it is src)
    cols = g.columns
    limit = np.full(len(symbols), np.inf)
    np.minimum.at(limit, cols.src, cols.resid_std / np.maximum(np.abs(cols.beta1), 1e-12))
    np.minimum.at(limit, cols.dst, cols.resid_std)
    wired = np.zeros(len(symbols), dtype=bool)
    wired[cols.src] = True
    wired[cols.dst] = True
    wired_limit = limit[wired]
    for seed in seeds:
        draw = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(symbols))
        delta = draw * 0.005 * price
        delta[wired] = draw[wired] * 0.5 * budget_sigmas * wired_limit
        tick = dict(base)
        tick.update(zip(symbols, (price + delta).tolist()))
        yield tick


def shock_delta(g: CointGraph, node_id: int, sigmas: float, break_all: bool) -> float:
    """Price delta for one node: large enough to push every incident edge
    beyond `sigmas` (break_all) or small enough that even the most
    sensitive incident edge moves exactly `sigmas` (break_none). A node
    without incident edges raises ScenarioError naming its symbol."""
    incident = neighbors(g, node_id)
    if not incident:
        raise ScenarioError(f"symbol {g.symbol(node_id)!r} has no incident edges to shock")
    per_edge = [
        sigmas * e.model.resid_std / max(_role_coefficient(e, node_id), 1e-12)
        for e, _ in incident
    ]
    return max(per_edge) if break_all else min(per_edge)


def _shock(tick: dict[str, float], symbol: str, delta: float) -> None:
    """Add delta to the symbol's price in tick; ScenarioError, naming the
    symbol, when the shocked price is not finite (a close the tick loader
    would reject)."""
    price = tick[symbol] + delta
    if not math.isfinite(price):
        raise ScenarioError(f"symbol {symbol!r}: shocked price {price!r} is not finite")
    tick[symbol] = price


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
    sensitive edge and the expected set is empty. A shocked price that is
    not finite raises ScenarioError naming the symbol.
    """
    nid = g.node_id(symbol)
    tick = dict(base)
    _shock(tick, symbol, shock_delta(g, nid, sigmas, break_all))
    if break_all:
        expected = tuple(sorted(e.id for e, _ in neighbors(g, nid)))
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
    break-all shock to each. Returns the tick and the exact broken set;
    ScenarioError when the graph has no edges, no such set covers the
    fraction, or a shocked price is not finite (naming its symbol).
    """
    if not g.edges:
        raise ScenarioError("graph has no edges to break")
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
        _shock(tick, g.symbol(nid), shock_delta(g, nid, sigmas, break_all=True))
    return tick, tuple(sorted(covered))
