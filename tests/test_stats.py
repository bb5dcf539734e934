import math

import numpy as np
import pytest

from cointwatch import stats
from cointwatch.errors import (
    DegenerateRegressor,
    LengthMismatch,
    SingularDesign,
    TooShort,
)


def normal_equations_oracle(x, y):
    """Independent two-parameter OLS: solve the 2x2 normal equations
    directly (different route from the covariance-form implementation)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    gram = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
    rhs = np.array([y.sum(), (x * y).sum()])
    b0, b1 = np.linalg.solve(gram, rhs)
    return b0, b1


class TestSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            stats.Series([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            stats.Series([1.0, float("inf")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            stats.Series([[1.0, 2.0]])

    def test_immutable(self):
        s = stats.Series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        with pytest.raises(AttributeError):
            s.values = np.zeros(2)

    def test_empty_allowed(self):
        assert len(stats.Series([])) == 0

    def test_does_not_alias_caller_array(self):
        arr = np.array([1.0, 2.0])
        s = stats.Series(arr)
        arr[0] = 99.0
        assert s.values[0] == 1.0

    def test_reads_as_a_sequence_of_its_values(self):
        s = stats.Series([1.0, 2.5, 4.0])
        assert (s[0], s[-1]) == (1.0, 4.0)
        assert list(s) == [1.0, 2.5, 4.0]
        assert s == stats.Series(np.array([1, 2.5, 4]))
        assert s != stats.Series([1.0, 2.5])
        assert s.__eq__([1.0, 2.5, 4.0]) is NotImplemented
        assert repr(s) == "Series(n=3)"


class TestBlasThreads:
    def test_a_block_runs_where_the_thread_count_cannot_be_set(self, monkeypatch):
        # another BLAS, or a numpy without scipy-openblas: nothing to pin
        monkeypatch.setattr(stats, "_openblas_threads", lambda: None)
        assert stats.set_blas_threads(1) is None
        ran = []
        with stats.one_blas_thread(), stats.one_blas_thread():  # nested, too
            ran.append(True)
        assert ran == [True]
        assert stats._pins == 0


class TestUncenteredCond1:
    def test_an_exactly_singular_matrix_reads_inf_in_its_own_row_only(self):
        rng = np.random.default_rng(4)
        factors = rng.standard_normal((4, 3, 3))
        a = factors @ factors.transpose(0, 2, 1) + 3 * np.eye(3)
        a[2] = [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # two equal rows
        mu = rng.uniform(0.5, 2.0, (4, 3))  # positive: the inverse's inf meets no 0 or -inf
        cond = stats._uncentered_cond1(a, mu, 50)
        assert cond[2] == math.inf
        for r in (0, 1, 3):
            assert cond[r] == stats._uncentered_cond1(a[r:r + 1], mu[r:r + 1], 50)[0]
            assert math.isfinite(cond[r])


class TestOlsFit:
    def test_exact_line(self):
        m = stats.ols_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert m.beta0 == pytest.approx(1.0, abs=1e-12)
        assert m.beta1 == pytest.approx(2.0, abs=1e-12)
        assert m.resid_std == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_regressor(self):
        with pytest.raises(DegenerateRegressor):
            stats.ols_fit([5, 5, 5], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            stats.ols_fit([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(TooShort):
            stats.ols_fit([1, 2], [1, 2])

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 50, size=200)
        y = 0.5 * x + rng.standard_normal(200)
        m = stats.ols_fit(x, y)
        b0, b1 = normal_equations_oracle(x, y)
        assert m.beta0 == pytest.approx(b0, rel=1e-10, abs=1e-10)
        assert m.beta1 == pytest.approx(b1, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_affine_recovery(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-10, 10, size=2)
        x = rng.uniform(1, 100, size=50)
        m = stats.ols_fit(x, a + b * x)
        assert m.beta0 == pytest.approx(a, abs=1e-10)
        assert m.beta1 == pytest.approx(b, abs=1e-10)
        assert m.resid_std <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(10, 200, size=300)
        y = 3.0 + 0.7 * x + rng.standard_normal(300) * 5.0
        m = stats.ols_fit(x, y)
        r = m.residuals.values
        scale = max(abs(y).max(), 1.0)
        n = len(x)
        assert abs(r.sum()) <= 1e-8 * n * scale
        assert abs((r * x).sum()) <= 1e-8 * n * scale * abs(x).max()

    def test_resid_mean_and_sample_std(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, size=40)
        y = 1.0 + 2.0 * x + rng.standard_normal(40)
        m = stats.ols_fit(x, y)
        assert m.resid_mean == pytest.approx(0.0, abs=1e-9)
        assert m.resid_mean == pytest.approx(m.residuals.values.mean(), rel=1e-9, abs=1e-12)
        # sample convention, divisor n-1
        assert m.resid_std == pytest.approx(np.std(m.residuals.values, ddof=1), rel=1e-12)
        assert len(m.residuals) == 40


class TestDiff:
    def test_constant(self):
        assert list(stats.diff([1, 1, 1]).values) == [0, 0]

    def test_increments(self):
        assert list(stats.diff([0, 1, 3, 6]).values) == [1, 2, 3]

    def test_empty_raises(self):
        with pytest.raises(TooShort):
            stats.diff([])

    @pytest.mark.parametrize("seed", range(4))
    def test_telescoping_identity(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.integers(-1000, 1000, size=64).astype(float)
        d = stats.diff(s).values
        rebuilt = np.concatenate([[s[0]], s[0] + np.cumsum(d)])
        assert np.array_equal(rebuilt, s)


class TestDefaultLag:
    def test_n100(self):
        assert stats.default_lag(100) == 12

    def test_n50(self):
        # 12 * (0.5) ** 0.25 = 10.0909... -> floor 10, clamp bound is 23
        assert stats.default_lag(50) == 10

    def test_n8_clamped(self):
        assert stats.default_lag(8) == 2

    def test_n4_clamped_to_zero(self):
        assert stats.default_lag(4) == 0

    def test_too_short(self):
        with pytest.raises(TooShort):
            stats.default_lag(3)


class TestAdfStatistic:
    def test_random_walk_statistic_range(self):
        # unit-root null: the t-ratio concentrates in the Dickey-Fuller body
        reps, inside = 200, 0
        for seed in range(reps):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.standard_normal(500))
            stat, n_eff = stats.adf_statistic(walk, lags=0)
            assert n_eff == 499
            if -3.0 <= stat <= 1.0:
                inside += 1
        assert inside >= 0.95 * reps

    def test_white_noise_strongly_rejects(self):
        reps, below_1pct = 200, 0
        values = []
        for seed in range(reps):
            rng = np.random.default_rng(1000 + seed)
            stat, _ = stats.adf_statistic(rng.standard_normal(500), lags=0)
            values.append(stat)
            if stat < -3.43:  # tabulated 1% critical value, constant case
                below_1pct += 1
        assert below_1pct >= 0.99 * reps
        assert np.median(values) < -10.0

    def test_constant_series_singular(self):
        with pytest.raises(SingularDesign):
            stats.adf_statistic([5.0] * 50, lags=0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            stats.adf_statistic([1.0, 2.0, 3.0], lags=0)

    def test_negative_lags(self):
        with pytest.raises(ValueError):
            stats.adf_statistic([1.0, 2.0, 3.0, 4.0, 5.0], lags=-1)

    def test_n_effective(self):
        rng = np.random.default_rng(9)
        s = np.cumsum(rng.standard_normal(100))
        _, n_eff = stats.adf_statistic(s, lags=4)
        assert n_eff == 100 - 4 - 1


class TestAdfPairBatch:
    """The moment kernel against adf_statistic on the OLS residuals."""

    @staticmethod
    def pairs(scale, n=250):
        """Cointegrated and unrelated walks, then a constant and an exactly
        affine response, which the kernel must decline."""
        rng = np.random.default_rng(21)
        xs, ys = [], []
        for k in range(12):
            x = 100.0 + np.cumsum(rng.standard_normal(n))
            noise = rng.standard_normal(n)
            y = (50.0 + np.cumsum(rng.standard_normal(n)) if k % 3 == 0
                 else 20.0 + 0.8 * x + (noise if k % 3 == 1 else np.cumsum(noise) * 0.3))
            xs.append(x)
            ys.append(y)
        steps = 500.0 + np.cumsum(rng.integers(-3, 4, n))
        xs += [xs[0], steps]
        ys += [np.full(n, 42.0), 1.0 + 2.0 * steps]
        return np.array(xs) * scale, np.array(ys) * scale

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("lags", [0, 1, 3, stats.default_lag(250)])
    def test_matches_adf_statistic_where_ok(self, lags, scale):
        xs, ys = self.pairs(scale)
        fits = [stats.ols_fit(x, y) for x, y in zip(xs, ys)]
        b0 = np.array([f.beta0 for f in fits])
        b1 = np.array([f.beta1 for f in fits])
        ex, x_moments = stats.adf_designs(xs, lags)
        ey, y_moments = stats.adf_designs(ys, lags)
        stat, ok = stats.adf_pair_batch(x_moments, y_moments, ex @ ey.transpose(0, 2, 1), b0, b1)
        assert not ok[-2:].any()  # constant and exactly affine responses
        # the trust gate is not scale-free: at x1e-3 with 15 lags it declines
        # the rows whose residuals are white noise
        assert ok[:-2].sum() >= 8
        for r in np.flatnonzero(ok):
            want = stats.adf_statistic(fits[r].residuals, lags)[0]
            assert stat[r] == pytest.approx(want, rel=1e-9)


class TestAdfPvalue:
    def test_five_percent_anchor(self):
        # -2.86 is the tabulated 5% critical value for the constant case
        assert stats.adf_pvalue(-2.86) == pytest.approx(0.05, abs=0.01)

    def test_one_percent_anchor(self):
        assert stats.adf_pvalue(-3.43) == pytest.approx(0.01, abs=0.005)

    def test_ten_percent_anchor(self):
        assert stats.adf_pvalue(-2.57) == pytest.approx(0.10, abs=0.015)

    def test_zero_statistic(self):
        assert stats.adf_pvalue(0.0) > 0.9

    def test_monotone_over_grid(self):
        grid = np.linspace(-10.0, 5.0, 1000)
        values = [stats.adf_pvalue(float(t)) for t in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_clamped_tails(self):
        # below the surface range the value saturates at the 1e-6 floor;
        # above it the surface flattens but stays inside the clamp
        assert stats.adf_pvalue(-30.0) == pytest.approx(1e-6)
        assert stats.adf_pvalue(10.0) == stats.adf_pvalue(5.0)
        assert 0.99 < stats.adf_pvalue(10.0) <= 1.0 - 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            stats.adf_pvalue(float("nan"))


class TestAdfTest:
    def test_records_lags_and_neff(self):
        rng = np.random.default_rng(11)
        s = np.cumsum(rng.standard_normal(500))
        res = stats.adf_test(s)
        assert res.used_lags == stats.default_lag(500) == 17
        assert res.n_effective == 500 - 17 - 1
        assert 0.0 <= res.pvalue <= 1.0

    def test_explicit_lags(self):
        rng = np.random.default_rng(12)
        res = stats.adf_test(np.cumsum(rng.standard_normal(200)), lags=2)
        assert res.used_lags == 2
        assert res.n_effective == 197

    def test_short_series_with_lags(self):
        with pytest.raises(TooShort):
            stats.adf_test([1.0, 2.0, 3.0], lags=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_level_shift_invariance(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = np.cumsum(rng.standard_normal(300))
        a = stats.adf_test(s, lags=3)
        b = stats.adf_test(s + 1000.0, lags=3)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-8)
