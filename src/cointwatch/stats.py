"""Core statistics: OLS, differencing, and the augmented Dickey-Fuller test.

All operations are pure functions over immutable inputs. Non-finite samples
are rejected once, at :class:`Series` construction, so downstream code never
re-validates.

The p-value mapping embeds the MacKinnon (1994) response-surface regression
for the constant-only Dickey-Fuller distribution (single series, no trend),
the same published coefficients used by the major econometrics packages.
This keeps the test self-contained and bit-reproducible with no external
statistics dependency. Provenance: J.G. MacKinnon, "Approximate Asymptotic
Distribution Functions for Unit-Root and Cointegration Tests", JBES 12
(1994); cross-checked against the tabulated 1%/5%/10% critical values
(-3.43 / -2.86 / -2.57).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegressor, LengthMismatch, SingularDesign, TooShort


class Series:
    """An immutable 1-d array of finite float samples.

    The single validation chokepoint for numeric inputs: construction rejects
    NaN and infinities, and the backing array is frozen against writes.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-dimensional, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"Series(n={len(self)})"


def as_series(s) -> Series:
    """Coerce array-likes through Series validation; pass Series through."""
    return s if isinstance(s, Series) else Series(s)


@dataclass(frozen=True)
class LinearModel:
    """OLS fit of y against (1, x).

    resid_std uses the sample convention (divisor n-1); the alert leash rule
    is calibrated against that convention.
    """

    beta0: float
    beta1: float
    residuals: Series
    resid_mean: float
    resid_std: float


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    pvalue: float
    used_lags: int
    n_effective: int


def ols_fit(x, y) -> LinearModel:
    """Least-squares line through (x, y): minimizes sum((y - b0 - b1*x)^2).

    Args:
        x: regressor samples (Series or array-like), length n >= 3.
        y: response samples, same length.

    Raises:
        LengthMismatch: x and y differ in length.
        TooShort: fewer than 3 samples.
        DegenerateRegressor: x has zero variance.
    """
    xs = as_series(x)
    ys = as_series(y)
    n = len(xs)
    if n != len(ys):
        raise LengthMismatch(f"x has {n} samples, y has {len(ys)}")
    if n < 3:
        raise TooShort(f"need at least 3 samples, got {n}")
    xv = xs.values
    yv = ys.values
    x_mean = xv.mean()
    y_mean = yv.mean()
    xc = xv - x_mean
    sxx = xc @ xc
    if sxx == 0.0:
        raise DegenerateRegressor("regressor has zero variance")
    beta1 = (xc @ (yv - y_mean)) / sxx
    beta0 = y_mean - beta1 * x_mean
    resid = yv - beta0 - beta1 * xv
    return LinearModel(
        beta0=float(beta0),
        beta1=float(beta1),
        residuals=Series(resid),
        resid_mean=float(resid.mean()),
        resid_std=float(resid.std(ddof=1)),
    )


def diff(s) -> Series:
    """First difference: out[i] = s[i+1] - s[i]; output is one shorter."""
    ss = as_series(s)
    if len(ss) < 1:
        raise TooShort("cannot difference an empty series")
    return Series(np.diff(ss.values))


def default_lag(n: int) -> int:
    """Schwert-rule lag order floor(12*(n/100)^0.25), clamped to [0, n/2 - 2]."""
    if n < 4:
        raise TooShort(f"need at least 4 samples to pick a lag order, got {n}")
    schwert = int(math.floor(12.0 * (n / 100.0) ** 0.25))
    return max(0, min(schwert, n // 2 - 2))


def adf_statistic(s, lags: int) -> tuple[float, int]:
    """t-ratio of the lagged-level coefficient in the ADF regression.

    Fits ds_t = a + rho*s_{t-1} + sum_{i=1..lags} g_i * ds_{t-i} + e_t by OLS
    (constant included, no trend) and returns (rho_hat / stderr(rho_hat),
    number of observations entering the regression).

    Raises:
        TooShort: series shorter than lags + 4.
        SingularDesign: rank-deficient design or zero residual variance
            (e.g. a constant series).
    """
    ss = as_series(s)
    n = len(ss)
    if lags < 0:
        raise ValueError(f"lags must be >= 0, got {lags}")
    if n < lags + 4:
        raise TooShort(f"need at least lags + 4 = {lags + 4} samples, got {n}")
    v = ss.values
    d = np.diff(v)
    rows = n - lags - 1
    y = d[lags:]
    cols = [np.ones(rows), v[lags : n - 1]]
    for i in range(1, lags + 1):
        cols.append(d[lags - i : n - 1 - i])
    design = np.column_stack(cols)
    k = design.shape[1]
    if rows <= k:
        raise SingularDesign(f"{rows} observations cannot identify {k} coefficients")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k:
        raise SingularDesign("ADF design matrix is rank-deficient")
    resid = y - design @ beta
    sigma2 = (resid @ resid) / (rows - k)
    if sigma2 <= 0.0:
        raise SingularDesign("ADF regression has zero residual variance")
    try:
        gram_inv = np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("ADF design matrix is numerically singular") from exc
    stderr = math.sqrt(sigma2 * gram_inv[1, 1])
    return float(beta[1] / stderr), rows


# Trust limit of the batched ADF solve. A row goes back to adf_statistic
# when cond1(G) * (y'y / rss) exceeds it: cond1(G) = ||G||_1 ||G^-1||_1 bounds
# the normal equations' loss of accuracy, and y'y / rss (at least 1, about
# 1-3 on price data) grows without bound when the lags fit the differences
# almost exactly, where the t-ratio is rounding noise on either path. On
# price data the product stays below ~1e4. lstsq's rank cut-off in
# adf_statistic only bites near cond ~ 1e26, so every row under the limit is
# one that path also fits.
_BATCH_TRUST_LIMIT = 1e8


def adf_statistic_batch(s: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    """adf_statistic for every row of the 2-d array s at once.

    Builds the stacked ADF designs (one per row, same layout as
    adf_statistic) and solves them through their normal equations: stacked
    Gram matrices and a stacked inverse, with the t-ratio taken from the
    inverse's level-term diagonal. Agrees with adf_statistic to rounding
    (about 1e-13 relative on price-like data), not bit for bit.

    Returns (statistics, ok). ok is False for every row the normal equations
    cannot vouch for: a singular or ill-conditioned Gram matrix (1-norm
    condition above 1e8), a regression whose lags fit the differences almost
    exactly (see _BATCH_TRUST_LIMIT), zero residual variance, or a
    non-finite value. Those rows' statistics are meaningless; callers
    recompute them with adf_statistic, which also decides the skip reason.
    A row's result depends on that row alone.

    Requires lags >= 0 and more regression rows than coefficients
    (n - lags - 1 > lags + 2), the cases adf_statistic does not reject.
    """
    m, n = s.shape
    rows = n - lags - 1
    k = lags + 2
    if lags < 0 or rows <= k:
        raise ValueError(f"{n} samples cannot identify {k} coefficients at lags={lags}")
    d = np.diff(s, axis=1)
    # design_t[r] is the transpose of row r's ADF design: one contiguous
    # regressor per row of it, which makes the copies below plain slices
    design_t = np.empty((m, k, rows))
    design_t[:, 0] = 1.0
    design_t[:, 1] = s[:, lags : n - 1]
    for i in range(1, lags + 1):
        design_t[:, 1 + i] = d[:, lags - i : n - 1 - i]
    y = d[:, lags:, None]
    design = design_t.transpose(0, 2, 1)
    gram = design_t @ design
    gram_inv = _stacked_inv(gram)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        beta = gram_inv @ (design_t @ y)
        resid = (y - design @ beta)[:, :, 0]
        rss = (resid * resid).sum(axis=1)
        sigma2 = rss / (rows - k)
        stat = beta[:, 1, 0] / np.sqrt(sigma2 * gram_inv[:, 1, 1])
        cond = _norm1(gram) * _norm1(gram_inv)
        fit = (y[:, :, 0] * y[:, :, 0]).sum(axis=1) / rss
        ok = (sigma2 > 0.0) & (cond * fit <= _BATCH_TRUST_LIMIT) & np.isfinite(stat)
    return stat, ok


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (largest absolute column sum) of each stacked matrix."""
    return np.abs(a).sum(axis=1).max(axis=1)


def _stacked_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of each stacked matrix; NaN for any matrix that is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full_like(a, np.nan)
        for r, matrix in enumerate(a):
            try:
                out[r] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
        return out


# MacKinnon (1994) response-surface coefficients, constant-only case, one
# series. p = Phi(poly(stat)); the polynomial switches at _TAU_STAR and is
# monotone increasing on [_TAU_MIN, _TAU_MAX], so statistics are clipped to
# that range before evaluation (p saturates and is then clamped).
_TAU_MIN = -18.83
_TAU_MAX = 2.74
_TAU_STAR = -1.61
_SMALL_P = (2.1659, 1.4412, 3.8269e-2)
_LARGE_P = (1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2)
_P_FLOOR = 1e-6


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def adf_pvalue(statistic: float) -> float:
    """Approximate p-value for an ADF t-statistic (constant-only case).

    Monotone non-decreasing in the statistic; clamped to
    [1e-6, 1 - 1e-6] outside the response-surface range.
    """
    if not math.isfinite(statistic):
        raise ValueError(f"statistic must be finite, got {statistic}")
    s = min(max(statistic, _TAU_MIN), _TAU_MAX)
    coeffs = _SMALL_P if s <= _TAU_STAR else _LARGE_P
    z = 0.0
    for c in reversed(coeffs):
        z = z * s + c
    return min(max(_norm_cdf(z), _P_FLOOR), 1.0 - _P_FLOOR)


def adf_test(s, lags: int | None = None) -> AdfResult:
    """Unit-root test: adf_statistic composed with adf_pvalue.

    When lags is omitted the Schwert default_lag rule is applied.
    """
    ss = as_series(s)
    used = default_lag(len(ss)) if lags is None else lags
    stat, n_eff = adf_statistic(ss, used)
    return AdfResult(statistic=stat, pvalue=adf_pvalue(stat), used_lags=used, n_effective=n_eff)
