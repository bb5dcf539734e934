"""Core statistics: OLS, differencing, and the augmented Dickey-Fuller test.

All operations are pure functions over immutable inputs. Non-finite samples
are rejected once, at :class:`Series` construction, so downstream code never
re-validates.

Many ADF regressions run at once in one batch kernel, adf_pair_batch. It
takes the residual series u = y - b0 - b1*x of many pairs from moments:
each series' centered ADF design and Gram matrix are built once
(adf_designs), a pair's moment matrix is combined from its two series'
Gram matrices and their cross product, and one stacked Cholesky
factorization gives every t-ratio. Rows the normal equations cannot vouch
for are flagged by two trust gates, on the condition number of the
uncentered design's Gram matrix (_BATCH_TRUST_LIMIT) and on the
cancellation in forming a pair's moments (_BATCH_CANCEL_LIMIT); callers
recompute those with adf_statistic. The first gate tries two upper bounds
on the condition number, an eigenvalue bound and a comparison-matrix
bound on the Cholesky factor already at hand, before it computes the
exact one (_trusted), so a row costs an inverse only when neither bound
clears it.

The p-value mapping embeds the MacKinnon (1994) response-surface regression
for the constant-only Dickey-Fuller distribution (single series, no trend),
the same published coefficients used by the major econometrics packages.
This keeps the test self-contained and bit-reproducible with no external
statistics dependency. adf_pvalues maps many statistics at once, bit for
bit as adf_pvalue does. Provenance: J.G. MacKinnon, "Approximate Asymptotic
Distribution Functions for Unit-Root and Cointegration Tests", JBES 12
(1994); cross-checked against the tabulated 1%/5%/10% critical values
(-3.43 / -2.86 / -2.57).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateRegressor,
    LengthMismatch,
    NonFiniteFit,
    SingularDesign,
    TooShort,
)


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
        NonFiniteFit: the fit overflows (prices near the float64 limit).
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
    # an overflow leaves a non-finite residual or spread, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean = xv.mean()
        y_mean = yv.mean()
        xc = xv - x_mean
        sxx = xc @ xc
        if sxx == 0.0:
            raise DegenerateRegressor("regressor has zero variance")
        beta1 = (xc @ (yv - y_mean)) / sxx
        beta0 = y_mean - beta1 * x_mean
        resid = yv - beta0 - beta1 * xv
        resid_mean = float(resid.mean())
        resid_std = float(resid.std(ddof=1))
    if not (math.isfinite(resid_mean) and math.isfinite(resid_std) and np.isfinite(resid).all()):
        raise NonFiniteFit(
            "OLS residuals or their spread are not finite (prices too large for float64)"
        )
    return LinearModel(
        beta0=float(beta0),
        beta1=float(beta1),
        residuals=Series(resid),
        resid_mean=resid_mean,
        resid_std=resid_std,
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


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy ships no library exporting them (another BLAS, or a numpy
    build older than its scipy-openblas wheels)."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/libscipy_openblas*"),
                        *root.glob(".dylibs/libscipy_openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it: the same handle
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def set_blas_threads(n: int) -> int | None:
    """Set the thread count of numpy's bundled OpenBLAS to n and return the
    previous count; where it cannot be set (see _openblas_threads), do
    nothing and return None."""
    threads = _openblas_threads()
    if threads is None:
        return None
    get, set_ = threads
    before = get()
    set_(n)
    return before


# the pins one_blas_thread holds: the thread count is the process's, so the
# first pin sets one thread and the last restores the count the first found
_PIN_LOCK = threading.Lock()
_pins = 0
_unpinned: int | None = None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, then
    restore its thread count.

    A BLAS may split a large matrix product over threads, and the split
    changes how its sums round: with long ADF designs (about 35 or more
    columns) a product's last bits depended on OPENBLAS_NUM_THREADS. On one
    thread they do not. Blocks may nest or run in several threads at once;
    the count is restored when the last of them ends. Where the thread
    count cannot be set, the block runs as it is.
    """
    global _pins, _unpinned
    with _PIN_LOCK:
        if _pins == 0:
            _unpinned = set_blas_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pins -= 1
            if _pins == 0 and _unpinned is not None:
                set_blas_threads(_unpinned)


# Trust limit of the batched ADF kernel. A row goes back to adf_statistic
# when cond1(G) * (y'y / rss) exceeds it, where G is the Gram matrix of the
# row's uncentered ADF design (constant, lagged level, lagged differences)
# and y the uncentered target: cond1(G) = ||G||_1 ||G^-1||_1 bounds the
# normal equations' loss of accuracy, and y'y / rss (at least 1, about 1-3
# on price data) grows without bound when the lags fit the differences
# almost exactly, where the t-ratio is rounding noise on either path. On
# price data the product stays below ~1e4. lstsq's rank cut-off in
# adf_statistic only bites near cond ~ 1e26, so every row under the limit is
# one that path also fits.
_BATCH_TRUST_LIMIT = 1e8

# Second trust limit of the batched ADF kernel, on a scale-free product.
# Forming a pair's moment matrix M = Y'Y - b1 (C + C') + b1^2 X'X cancels
# terms of size trace(Y'Y) + b1^2 trace(X'X) down to trace(M), and the
# relative rounding error that leaves in M is amplified by y'y / rss in the
# t-ratio. A row goes back to adf_statistic when the cancellation ratio
# times y'y / rss exceeds this. On 250-day price data the product stays
# below ~25; on 4- to 12-day windows, rows past ~3e5 gave t-ratios more
# than 1e-9 relative off adf_statistic's while passing the limit above.
_BATCH_CANCEL_LIMIT = 1e4


class AdfMoments(NamedTuple):
    """Moments of stacked centered ADF designs (see adf_designs).

    take() gives one row's moments (unbatched arrays) or a stack of rows.
    """

    gram: np.ndarray  # (m, k, k): each design's Gram matrix, e @ e.T
    mean: np.ndarray  # (m, k): each design's column means before centering
    rows: int  # regression rows

    def take(self, index) -> "AdfMoments":
        return AdfMoments(self.gram[index], self.mean[index], self.rows)


def adf_designs(s: np.ndarray, lags: int) -> tuple[np.ndarray, AdfMoments]:
    """The centered ADF design of every row of the 2-d array s, transposed
    (shape (m, k, rows)), and its moments.

    Row r's design has one column per regression term of adf_statistic
    except the constant: the `lags` lagged differences (longest lag first),
    then the lagged level, then the target difference, each centered over
    the regression rows. Centering partials out the constant
    (Frisch-Waugh-Lovell), so the moment matrix of a residual series
    u = y - b0 - b1*x is a combination of x's and y's moments and their
    cross product (adf_pair_batch). Each row's arrays depend on that row
    alone, bit for bit, so a series gets the same design from any stack it
    is part of.
    """
    m, n = s.shape
    rows = n - lags - 1
    d = np.ascontiguousarray(np.diff(s, axis=1))
    # window w of the differences starts at w: lag i is window lags - i, and
    # the target is window lags
    step = d.strides[1]
    windows = np.ndarray((m, lags + 1, rows), d.dtype, d, 0, (d.strides[0], step, step))
    e = np.empty((m, lags + 2, rows))
    e[:, :lags] = windows[:, :lags]
    e[:, lags] = s[:, lags : n - 1]
    e[:, lags + 1] = windows[:, lags]
    mean = e.sum(axis=2) / rows
    e -= mean[:, :, None]
    # a copy on the right makes this a general product per row, which runs
    # faster than the symmetric one numpy picks for an array and its own
    # transpose
    return e, AdfMoments(e @ e.copy().transpose(0, 2, 1), mean, rows)


def adf_pair_batch(
    x: AdfMoments, y: AdfMoments, cross: np.ndarray, b0: np.ndarray, b1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """adf_statistic of every residual series u = y - b0 - b1*x, from moments.

    x and y are the moments of the two sides' designs (x may be one
    unbatched row shared by every row of y), cross the stacked products
    X'Y of their designs (e_x @ e_y.T, one fixed-shape product per row), and
    b0, b1 the fitted lines. Row r's moment matrix is

        M = Y'Y - b1 (C + C') + b1^2 X'X,   C = X'Y,

    the centered Gram matrix of u's design with the target last. One
    Cholesky factor L of M gives the t-ratio of the lagged level,
    L[-1,-2] * sqrt(rows - k) / L[-1,-1], and rss = L[-1,-1]^2; no design of
    u is built. Agrees with adf_statistic to rounding (about 1e-12 relative
    on price data), not bit for bit.

    Returns (statistics, ok). ok is False for every row the kernel cannot
    vouch for: a moment matrix that is not finite or not numerically
    positive definite, one past either trust limit (_BATCH_TRUST_LIMIT,
    _BATCH_CANCEL_LIMIT), or a non-finite statistic. Those rows' statistics
    are meaningless; callers recompute them with adf_statistic, which also
    decides the skip reason. A row's result depends on that row alone.
    """
    rows = y.rows
    b1c = b1[:, None, None]
    # Y'Y + b1 (b1 X'X - C - C')
    moments = b1c * x.gram
    moments -= cross
    moments -= cross.transpose(0, 2, 1)
    moments *= b1c
    moments += y.gram
    mean = y.mean - b1[:, None] * x.mean
    mean[:, -2] -= b0  # the lagged level carries the intercept
    # k design columns (lags, level, target): as many as the regression has
    # coefficients, the constant included
    k = moments.shape[-1]
    factor, ok = _cholesky(moments)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rss = factor[:, -1, -1] * factor[:, -1, -1]
        stat = factor[:, -1, -2] * math.sqrt(rows - k) / factor[:, -1, -1]
        target = mean[:, -1]
        fit = (moments[:, -1, -1] + rows * (target * target)) / rss
        terms = y.gram.diagonal(0, -2, -1).sum(-1)
        terms += b1 * b1 * x.gram.diagonal(0, -2, -1).sum(-1)
        cancel = terms / moments.diagonal(0, 1, 2).sum(1)
        ok &= np.isfinite(stat) & (cancel * fit <= _BATCH_CANCEL_LIMIT)
        ok &= _trusted(moments, factor, mean, rows, fit, ok)
    return stat, ok


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor of each stacked matrix, and whether it exists.

    A matrix that is not numerically positive definite gets ok False and an
    identity factor; the others' factors do not depend on it. A NaN (a
    constant regressor's slope) reaches every diagonal entry, so it is
    caught before the factorization.
    """
    ok = np.diagonal(a, axis1=1, axis2=2).min(axis=1) > 0.0
    if not ok.all():
        a = np.where(ok[:, None, None], a, np.eye(a.shape[-1]))
    try:
        return np.linalg.cholesky(a), ok
    except np.linalg.LinAlgError:
        out = np.empty_like(a)
        for r, matrix in enumerate(a):
            try:
                out[r] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                out[r], ok[r] = np.eye(a.shape[-1]), False
        return out, ok


def _trusted(moments, factor, mean, rows, fit, ok) -> np.ndarray:
    """Whether cond1(G) * fit <= _BATCH_TRUST_LIMIT, for each row with ok set.

    G is the Gram matrix of the row's uncentered design, cond1(G) =
    ||G||_1 ||G^-1||_1, and _gram_norm_bound bounds ||G||_1. Two upper
    bounds on ||G^-1||_1 and then the exact cond1(G) run in turn, each on
    the rows the one before did not clear: the eigenvalue bound
    (_eigen_inverse_bound, O(p) per row), the comparison-matrix bound on
    the Cholesky factor (_comparison_inverse_bound, a few stacked p x p
    products) and _uncentered_cond1 (an inverse per row). A bound only
    clears a row whose exact test passes, so every decision is the exact
    test's. Shares of the rows each one decides, measured at the default
    lag order on 250-day windows: a planted universe of 16 clusters of 16
    symbols (3,840 rows) 33% / 67% / 1 row; the refits of a 300-tick replay
    over 400 symbols in 25-symbol sectors (1,261 rows) 90% / 10% / 1 row; a
    50-symbol sector scan (2,450 rows) 99.4% / 0.6% / 0.
    """
    a, r, mu = moments[:, :-1, :-1], factor[:, :-1, :-1], mean[:, :-1]
    limit = _BATCH_TRUST_LIMIT / fit
    s = np.abs(mu).sum(axis=1)
    g_norm = _gram_norm_bound(a, s, rows)
    trusted = g_norm * _eigen_inverse_bound(a, r, s, rows) <= limit
    rest = np.flatnonzero(ok & ~trusted)
    if rest.size:
        cleared = g_norm[rest] * _comparison_inverse_bound(r[rest], s[rest], rows) <= limit[rest]
        trusted[rest] = cleared
        rest = rest[~cleared]
    if rest.size:
        trusted[rest] = _uncentered_cond1(a[rest], mu[rest], rows) <= limit[rest]
    return trusted


# Each bound below is on a G = [[n, n mu'], [n mu, A + n mu mu']], n = rows:
# A is the regressors' centered Gram matrix (p x p), r its Cholesky factor,
# mu their means and s = ||mu||_1.


def _gram_norm_bound(a, s, rows) -> np.ndarray:
    """An upper bound on ||G||_1, n (1 + s)^2 + sqrt(p) trace(A).

    Column 0 of G sums to n (1 + s); column j to at most n |mu_j| (1 + s)
    + ||A e_j||_1, and ||A e_j||_1 <= ||A||_1 <= sqrt(p) ||A||_2 <=
    sqrt(p) trace(A) for a positive semidefinite A.
    """
    c = 1.0 + s
    return rows * (c * c) + math.sqrt(a.shape[-1]) * np.diagonal(a, axis1=1, axis2=2).sum(axis=1)


def _eigen_inverse_bound(a, r, s, rows) -> np.ndarray:
    """An upper bound on ||G^-1||_1 from an eigenvalue bound; O(p) per row.

    With d = diag(A) and c = 1 + s:
    - lambda_min(A) >= det(A) / prod(d) / e * min(d): the scaled matrix
      D^-1/2 A D^-1/2 has trace p, so by the AM-GM inequality its smallest
      eigenvalue exceeds its determinant over (p / (p - 1))^(p - 1) < e;
    - ||A^-1||_1 <= sqrt(p) / lambda_min(A) and ||A^-1 mu||_2 <=
      ||mu||_2 / lambda_min(A) bound the bordered inverse of G (see
      _uncentered_cond1): ||G^-1||_1 <= 1/n + c (c - 1 + sqrt(p)) / lambda.
    """
    root_p = math.sqrt(a.shape[-1])
    d = np.diagonal(a, axis1=1, axis2=2)
    pivots = np.diagonal(r, axis1=1, axis2=2)
    lam = np.prod(pivots * pivots / d, axis=1) * d.min(axis=1)
    c = 1.0 + s
    return 1.0 / rows + math.e * c * (c + (root_p - 1.0)) / lam


def _comparison_inverse_bound(r, s, rows) -> np.ndarray:
    """An upper bound on ||G^-1||_1 from the comparison matrix of r.

    Proof. A = r r', so A^-1 = r^-T r^-1 and ||A^-1||_1 <= ||r^-T||_1
    ||r^-1||_1 = ||r^-1||_inf ||r^-1||_1. The comparison matrix M(r), with
    |r_ii| on the diagonal and -|r_ij| off it, has |r^-1| <= M(r)^-1
    entrywise for a triangular r (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., SIAM 2002, section 8.3), and M(r)^-1
    >= 0; so B = (largest row sum of M(r)^-1) (largest column sum) bounds
    ||A^-1||_1. For the bordered inverse of G (see _uncentered_cond1), w =
    A^-1 mu has ||w||_1 <= B s and |mu'w| <= ||mu||_inf ||w||_1 <= B s^2:
    column 0 of G^-1 sums to at most 1/n + B s (s + 1), column j >= 1 to at
    most |w_j| + ||A^-1 e_j||_1 <= B (s + 1), and so ||G^-1||_1 <= 1/n +
    B (s + 1) max(s, 1).

    M(r)^-1 is taken whole, not by substitution: with D = diag(r) and T =
    D^-1 |r| - I, strictly lower triangular and so nilpotent, M(r) = D (I -
    T) and (I - T)^-1 = (I + T)(I + T^2)(I + T^4)..., ceil(log2 p) factors;
    a substitution takes p numpy steps, which cost more than the exact test
    on a few rows. Every term is non-negative, so no sum cancels. A pivot
    ratio that overflows makes the bound inf or NaN, which clears no row.
    """
    p = r.shape[-1]
    pivots = np.diagonal(r, axis1=1, axis2=2)
    inverse = np.abs(r) / pivots[:, :, None]  # I + T
    t = inverse - np.eye(p)
    power = 2
    while power < p:
        t = t @ t
        inverse += inverse @ t
        power *= 2
    inverse /= pivots[:, None, :]
    a_inv = inverse.sum(axis=2).max(axis=1) * inverse.sum(axis=1).max(axis=1)
    return 1.0 / rows + a_inv * (s + 1.0) * np.maximum(s, 1.0)


def _uncentered_cond1(a, mu, rows) -> np.ndarray:
    """cond1 of each G = [[n, n mu'], [n mu, A + n mu mu']], n = rows.

    G^-1 is assembled by the bordered-inverse identity,
    [[1/n + mu'A^-1 mu, -(A^-1 mu)'], [-A^-1 mu, A^-1]], from the centered
    A alone. An exactly singular A has an infinite condition number; it is
    found one row at a time, so it affects only its own row.
    """
    m, p = mu.shape
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        a_inv = np.full_like(a, np.inf)
        for r, matrix in enumerate(a):
            try:
                a_inv[r] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
    w = a_inv @ mu[:, :, None]
    g, g_inv = np.empty((2, m, p + 1, p + 1))
    g[:, 0, 0] = rows
    g[:, 0, 1:] = g[:, 1:, 0] = rows * mu
    np.add(a, g[:, 1:, :1] * mu[:, None, :], out=g[:, 1:, 1:])
    g_inv[:, 0, 0] = 1.0 / rows + (mu[:, None, :] @ w)[:, 0, 0]
    g_inv[:, 1:, :1] = -w
    g_inv[:, 0, 1:] = g_inv[:, 1:, 0]
    g_inv[:, 1:, 1:] = a_inv
    # both are symmetric up to rounding: the largest absolute column sum is
    # the 1-norm
    return np.abs(g).sum(axis=1).max(axis=1) * np.abs(g_inv).sum(axis=1).max(axis=1)


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


# _SMALL_P padded to _LARGE_P's degree: a zero leading coefficient leaves
# Horner's steps, and so every bit of the polynomial, as adf_pvalue has them
_HORNER_STEPS = tuple(zip(reversed(_SMALL_P + (0.0,)), reversed(_LARGE_P)))

# adf_pvalues maps fewer statistics than this one by one: on a 2-core x86-64
# host its numpy steps cost ~20 us at any count, adf_pvalue ~1.2 us each
_BULK_MIN = 16


def adf_pvalues(statistics: np.ndarray) -> np.ndarray:
    """adf_pvalue of every entry of a 1-d float64 array, bit for bit.

    The clip, the response-surface polynomial and the clamp run in numpy,
    each operation rounded as adf_pvalue's Python arithmetic rounds it; the
    normal tail is math.erfc's. Raises ValueError on a non-finite entry.
    """
    if len(statistics) < _BULK_MIN:
        return np.array([adf_pvalue(t) for t in statistics.tolist()], dtype=np.float64)
    if not np.isfinite(statistics).all():
        raise ValueError("statistics must be finite")
    s = np.minimum(np.maximum(statistics, _TAU_MIN), _TAU_MAX)
    large = s > _TAU_STAR
    z = np.zeros_like(s)
    for small_c, large_c in _HORNER_STEPS:
        z *= s
        z += np.where(large, large_c, small_c)
    tail = np.fromiter(map(math.erfc, (-z / math.sqrt(2.0)).tolist()), np.float64, len(z))
    return np.minimum(np.maximum(0.5 * tail, _P_FLOOR), 1.0 - _P_FLOOR)


def adf_test(s, lags: int | None = None) -> AdfResult:
    """Unit-root test: adf_statistic composed with adf_pvalue.

    When lags is omitted the Schwert default_lag rule is applied.
    """
    ss = as_series(s)
    used = default_lag(len(ss)) if lags is None else lags
    stat, n_eff = adf_statistic(ss, used)
    return AdfResult(statistic=stat, pvalue=adf_pvalue(stat), used_lags=used, n_effective=n_eff)
