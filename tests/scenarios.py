"""The two-symbol refit scenarios the C5/C6 acceptance tests and the
refit tests run: a cointegrated pair fit on one window, a tick that breaks
its leash, and the trailing window the refit reads.

transient_scenario spikes the pair for one tick, so the refit should
re-admit it; regime_break_scenario lets the dst walk off with drift, so the
refit should reject it and the edge should be removed. pair_graph wires the
fitted pair as the one edge of a two-node graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cointwatch import graph as graphmod
from cointwatch.coint import PairResult, PriceSeries, coint_fit
from cointwatch.graph import CointGraph
from cointwatch.stats import ols_fit
from cointwatch.synth import BASE_LEVEL


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
