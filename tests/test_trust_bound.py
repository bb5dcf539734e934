"""The batched ADF kernel's trust gate against the exact condition number.

stats._trusted clears a row by an eigenvalue bound, then by a
comparison-matrix bound on the row's Cholesky factor, and gives the rows
neither clears the exact cond1 of the uncentered Gram matrix. Both bounds
are upper bounds, so the gate's decision on every row must be the exact
test's: cond1(G) * y'y / rss <= _BATCH_TRUST_LIMIT.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointwatch import coint, stats, synth


def row_moments(s, lags):
    """(a, r, mu, rows, ok) of the ADF design of each row of s as a
    residual series: the regressors' centered Gram matrix, its Cholesky
    factor, their means, the regression rows, and whether the factor
    exists, as adf_pair_batch hands them to _trusted."""
    moments = stats.adf_designs(s, lags)[1]
    factor, ok = stats._cholesky(moments.gram)
    return (moments.gram[:, :-1, :-1], factor[:, :-1, :-1], moments.mean[:, :-1],
            moments.rows, ok)


def comparison_cond1(a, r, mu, rows):
    """The comparison-matrix bound on cond1(G), as _trusted forms it."""
    s = np.abs(mu).sum(axis=1)
    return stats._gram_norm_bound(a, s, rows) * stats._comparison_inverse_bound(r, s, rows)


def series_of(kind, seed, n):
    rng = np.random.default_rng(seed)
    walk = 100.0 + np.cumsum(rng.standard_normal(n))
    if kind == "planted":  # a cointegrated pair's OLS residuals
        y = 20.0 + 1.5 * walk + rng.standard_normal(n)
        fit = stats.ols_fit(walk, y)
        return np.asarray(fit.residuals.values)
    if kind == "walk":
        return walk
    if kind == "near-singular":  # a sine's differences obey a two-term recurrence
        return np.sin(0.3 * np.arange(n)) + 1e-6 * rng.standard_normal(n)
    # constant-column: a trend's differences are a constant column but for noise
    return 0.5 * np.arange(n) + 1e-7 * rng.standard_normal(n)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["planted", "walk", "near-singular", "constant-column"]),
    seed=st.integers(0, 2**16),
    n=st.integers(4, 300),
    scale=st.sampled_from([1.0, 1e-4, 1e4]),
)
@example(kind="planted", seed=1, n=250, scale=1.0)
@example(kind="near-singular", seed=1, n=250, scale=1e4)
@example(kind="constant-column", seed=1, n=250, scale=1e-4)
def test_the_comparison_bound_is_at_least_the_exact_cond1(kind, seed, n, scale):
    s = scale * series_of(kind, seed, n)[None, :]
    a, r, mu, rows, ok = row_moments(s, stats.default_lag(n))
    with np.errstate(all="ignore"):  # a declined row's pivot ratios may overflow
        bound = comparison_cond1(a, r, mu, rows)
        exact = stats._uncentered_cond1(a, mu, rows)
    # rounding in either is far below the bound's slack; NaN clears no row
    assert not (bound[ok] < exact[ok]).any(), (bound, exact)


class GateSpy:
    """Wraps stats._trusted: records, for every ok row, the gate's decision,
    the exact-only decision and which rows reached _uncentered_cond1."""

    def __init__(self, monkeypatch):
        self.gate, self.exact, self.rows, self.exact_rows = [], [], 0, 0
        trusted, uncentered = stats._trusted, stats._uncentered_cond1

        def spy_uncentered(a, mu, rows):
            self.exact_rows += len(a)
            return uncentered(a, mu, rows)

        def spy_trusted(moments, factor, mean, rows, fit, ok):
            got = trusted(moments, factor, mean, rows, fit, ok)
            cond1 = uncentered(moments[:, :-1, :-1], mean[:, :-1], rows)
            self.gate.append(got[ok])
            self.exact.append((cond1 * fit <= stats._BATCH_TRUST_LIMIT)[ok])
            self.rows += int(ok.sum())
            return got

        monkeypatch.setattr(stats, "_trusted", spy_trusted)
        monkeypatch.setattr(stats, "_uncentered_cond1", spy_uncentered)

    def assert_exact_decisions(self):
        assert self.rows
        np.testing.assert_array_equal(np.concatenate(self.gate), np.concatenate(self.exact))


def test_planted_rows_get_the_exact_decisions_and_rarely_the_exact_path(monkeypatch):
    universe = synth.planted_universe(n_clusters=16, cluster_size=16, n_independent=0, seed=1)
    spy = GateSpy(monkeypatch)
    synth.planted_graph(synth.universe_series(universe.table).series, universe.clusters)
    spy.assert_exact_decisions()
    assert spy.rows == 16 * 16 * 15
    # the eigenvalue bound alone sent two thirds of these rows to the inverse
    assert spy.exact_rows <= spy.rows // 100


@pytest.mark.parametrize("seed", [1, 2])
def test_refit_rows_get_the_exact_decisions(monkeypatch, seed):
    # trailing windows of a sector, as a run's refits fit them; on 20-day
    # windows some rows fail the exact test
    universe = synth.planted_universe(n_clusters=1, cluster_size=5, n_independent=20,
                                      n_days=300, seed=seed)
    values = universe.table.prices.T
    src, dst = zip(*((i, j) for i in range(len(values)) for j in range(len(values)) if i != j))
    spy = GateSpy(monkeypatch)
    for length in (20, 250):
        for end in range(250, 301, 10):
            coint.fit_pairs(values[:, end - length:end], src, dst)
    spy.assert_exact_decisions()
    assert not np.concatenate(spy.exact).all()
