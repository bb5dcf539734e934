"""Pairwise cointegration testing and the all-pairs universe scan.

A pair fit regresses y on x and runs the unit-root test on the residuals,
admitting the directed pair when the residual p-value clears the threshold.

Many pairs are fitted at once by one row kernel (_fit_rows). The OLS step
runs row by row with coint_fit's exact arithmetic, so the pair models'
beta0, beta1, resid_mean and resid_std are bit-identical to it. The ADF
step never builds a pair's residual design: each symbol's centered ADF
design is built once (stats.adf_designs), and a pair's residual moment
matrix is combined from its two symbols' Gram matrices and one fixed-shape
cross product of their designs, then factored by one Cholesky
(stats.adf_pair_batch). That matches coint_fit's least-squares solve to
rounding. A degenerate or ill-conditioned row (the trust gate of
stats._BATCH_TRUST_LIMIT) falls back to coint_fit itself, so every skip
reason is coint_fit's own. Each row's result depends only on its own data:
the scan's output is the same for any worker count, and a pair gets the
same model bits from any batch, in the scan or in a refit.

The scan fits every destination of one source at once, from designs built
once per scan; its per-source memory is O(destinations * k^2) for k ADF
design columns. coint_fit_batch fits arbitrary pairs of equal length
together (the refits of a tick's broken edges); it builds both series'
designs for every pair, since a pair's bits must not depend on its caller.

Caveat documented on purpose: the residual test reuses the plain
Dickey-Fuller p-value surface. Residuals from a fitted regression are known
to need more negative critical values, so admission is somewhat permissive
for truly unrelated walks (roughly 10% at epsilon=0.05 instead of the
nominal 5%). This behavior is part of the contract; do not "fix" it by
swapping in residual-specific critical values.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterable, Sequence

import numpy as np

from . import stats
from .errors import (
    CointwatchError,
    DegeneratePair,
    MisalignedCalendar,
    UniverseTooSmall,
)

DIRECTION_BOTH = "both"
DIRECTION_SINGLE = "single"


class PriceSeries:
    """Aligned closing prices for one symbol over a fitting window."""

    __slots__ = ("symbol", "series", "window_id")

    def __init__(self, symbol: str, values, window_id: str = ""):
        series = stats.as_series(values)
        if len(series) and series.values.min() <= 0.0:
            raise ValueError(f"{symbol}: prices must be positive")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "window_id", window_id)

    def __setattr__(self, name, value):
        raise AttributeError("PriceSeries is immutable")

    @property
    def values(self) -> np.ndarray:
        return self.series.values

    def __len__(self):
        return len(self.series)

    def __repr__(self):
        return f"PriceSeries({self.symbol!r}, n={len(self)}, window={self.window_id!r})"


@dataclass(frozen=True)
class CointModel:
    """Directional pair model: predicts dst (y) from src (x)."""

    beta0: float
    beta1: float
    resid_mean: float
    resid_std: float
    pvalue: float
    adf_stat: float
    window_id: str = ""


@dataclass(frozen=True)
class PairResult:
    src_symbol: str
    dst_symbol: str
    model: CointModel
    admitted: bool


@dataclass(frozen=True)
class SkippedPair:
    src_symbol: str
    dst_symbol: str
    reason: str


@dataclass(frozen=True)
class ScanResult:
    """Canonically ordered scan output plus the pairs that could not be fit."""

    pairs: tuple[PairResult, ...]
    skipped: tuple[SkippedPair, ...]

    @property
    def admitted(self) -> tuple[PairResult, ...]:
        return tuple(p for p in self.pairs if p.admitted)


def coint_fit(x: PriceSeries, y: PriceSeries, lags: int | None = None) -> CointModel:
    """Fit the directional cointegration model x -> y.

    OLS of y on x, then the ADF test on the fit residuals (Schwert default
    lag order unless overridden).

    Raises:
        MisalignedCalendar: the two series come from different windows.
        DegeneratePair: zero residual spread (y is an exact affine image
            of x); such a pair carries no testable leash and is never an
            ordinary edge.
        Everything ols_fit/adf_test raise.
    """
    if x.window_id != y.window_id:
        raise MisalignedCalendar(
            f"{x.symbol} window {x.window_id!r} != {y.symbol} window {y.window_id!r}"
        )
    model = stats.ols_fit(x.series, y.series)
    if model.resid_std == 0.0:
        raise DegeneratePair(f"{x.symbol}->{y.symbol}: residuals have zero spread")
    adf = stats.adf_test(model.residuals, lags)
    return CointModel(
        beta0=model.beta0,
        beta1=model.beta1,
        resid_mean=model.resid_mean,
        resid_std=model.resid_std,
        pvalue=adf.pvalue,
        adf_stat=adf.statistic,
        window_id=x.window_id,
    )


def _ordered_pairs(symbols: Sequence[str], direction_policy: str) -> list[tuple[int, int]]:
    idx = range(len(symbols))
    if direction_policy == DIRECTION_BOTH:
        return [(i, j) for i in idx for j in idx if i != j]
    if direction_policy == DIRECTION_SINGLE:
        return [(i, j) for i in idx for j in idx if symbols[i] < symbols[j]]
    raise ValueError(f"unknown direction policy {direction_policy!r}")


def _fit_one(values, symbols, window_id, lags, pair):
    i, j = pair
    x = PriceSeries(symbols[i], values[i], window_id)
    y = PriceSeries(symbols[j], values[j], window_id)
    try:
        m = coint_fit(x, y, lags)
    except CointwatchError as exc:
        return (i, j, None, f"{type(exc).__name__}: {exc}")
    return (i, j, (m.beta0, m.beta1, m.resid_mean, m.resid_std, m.pvalue, m.adf_stat), None)


def _batch_lag(n: int, lags: int | None) -> int | None:
    """The ADF lag order coint_fit uses on n samples, or None when the batch
    cannot fit them (too short for the lag rule, or no more regression rows
    than coefficients); coint_fit then decides the outcome."""
    if lags is not None:
        lag = lags
    else:
        lag = stats.default_lag(n) if n >= 4 else -1  # default_lag raises below 4
    if lag < 0 or n - lag - 1 <= lag + 2:
        return None
    return lag


def _fit_rows(
    x: np.ndarray, ys: np.ndarray, x_moments: stats.AdfMoments, y_moments: stats.AdfMoments,
    cross: np.ndarray,
) -> list[tuple | None]:
    """Fit x -> ys[r] for every row r as coint_fit does, all rows at once.

    x is one regressor shared by every row (1-d) or one per row (2-d, same
    shape as ys). x_moments and y_moments are the moments of their ADF
    designs (stats.adf_designs; x's unbatched when x is 1-d), and cross
    holds each row's product e_x @ e_y.T of the two designs. The OLS step
    runs row by row exactly as stats.ols_fit does, so beta0, beta1,
    resid_mean and resid_std equal coint_fit's bit for bit; the ADF step
    runs on the rows' moments (stats.adf_pair_batch), and a row's result
    depends on that row alone.
    Returns one (beta0, beta1, resid_mean, resid_std, pvalue, adf_stat)
    tuple per row, or None for a row the batch cannot vouch for (zero
    regressor or residual spread, an untrusted ADF solve, a non-finite
    value): coint_fit must decide that row.
    """
    x_mean = x.mean(axis=-1)
    xc = x - x_mean[..., None]
    if x.ndim == 1:
        sxx, xc_rows = xc @ xc, repeat(xc)
    else:
        sxx, xc_rows = np.array([r @ r for r in xc]), xc
    y_mean = ys.mean(axis=1)
    sxy = np.array([a @ (y - ym) for a, y, ym in zip(xc_rows, ys, y_mean)])
    # a constant regressor (sxx == 0) makes its row NaN, declined below
    with np.errstate(divide="ignore", invalid="ignore"):
        beta1 = sxy / sxx
        beta0 = y_mean - beta1 * x_mean
        resid = ys - beta0[:, None] - beta1[:, None] * x
        resid_mean = resid.mean(axis=1)
        resid_std = resid.std(axis=1, ddof=1)
    stat, ok = stats.adf_pair_batch(x_moments, y_moments, cross, beta0, beta1)
    ok &= (resid_std != 0.0) & np.isfinite(beta0 + beta1 + resid_mean + resid_std)
    fields = zip(beta0.tolist(), beta1.tolist(), resid_mean.tolist(), resid_std.tolist(),
                 stat.tolist())
    return [
        (b0, b1, mean, std, stats.adf_pvalue(adf), adf) if good else None
        for good, (b0, b1, mean, std, adf) in zip(ok.tolist(), fields)
    ]


def _fit_source(values, designs, symbols, window_id, lags, i, js):
    """Fit i -> j for every j in js at once (_fit_rows), from the universe's
    ADF designs (stats.adf_designs; None when the window is too short to
    fit). Any pair the batch cannot vouch for, and every pair of a window
    too short, goes through _fit_one, so skip reasons are coint_fit's own.
    """
    if designs is None:
        return [_fit_one(values, symbols, window_id, lags, (i, j)) for j in js]
    e, moments = designs
    # one fixed-shape product per pair, taken over slices of the designs so
    # that no destination's design is copied: a run of consecutive ids is
    # one slice
    js = np.asarray(js)
    runs = np.split(js, np.flatnonzero(np.diff(js) != 1) + 1)
    cross = np.concatenate([e[i] @ e[run[0] : run[-1] + 1].transpose(0, 2, 1) for run in runs])
    fitted = _fit_rows(values[i], values[js], moments.take(i), moments.take(js), cross)
    return [
        (i, j, fields, None) if fields is not None
        else _fit_one(values, symbols, window_id, lags, (i, j))
        for j, fields in zip(js.tolist(), fitted)
    ]


def coint_fit_batch(pairs: Sequence[tuple[PriceSeries, PriceSeries]]) -> list[CointModel | None]:
    """coint_fit(x, y) for every (x, y) in pairs, fitted together.

    Pairs of equal length share one batched fit (_fit_rows), whatever their
    symbols. Returns each pair's model, the same as coint_fit's but for the
    last digits of pvalue and adf_stat, or None for a pair the batch cannot
    vouch for: a pair of different windows or lengths, one too short for
    the lag rule, or a row _fit_rows declines. Call coint_fit on those; it
    gives their model or raises their error. Never raises.
    """
    out: list[CointModel | None] = [None] * len(pairs)
    by_length: dict[int, list[int]] = {}
    for r, (x, y) in enumerate(pairs):
        if x.window_id == y.window_id and len(x) == len(y):
            by_length.setdefault(len(x), []).append(r)
    for n, rows in by_length.items():
        lag = _batch_lag(n, None)
        if lag is None:
            continue
        # every pair's x, then every pair's y
        values = np.array([pairs[r][0].values for r in rows] + [pairs[r][1].values for r in rows])
        x_rows, y_rows = slice(None, len(rows)), slice(len(rows), None)
        e, moments = stats.adf_designs(values, lag)
        cross = e[x_rows] @ e[y_rows].transpose(0, 2, 1)
        fitted = _fit_rows(
            values[x_rows], values[y_rows], moments.take(x_rows), moments.take(y_rows), cross
        )
        for r, fields in zip(rows, fitted):
            if fields is not None:
                out[r] = CointModel(*fields, window_id=pairs[r][0].window_id)
    return out


def _fit_pairs(values, designs, symbols, window_id, lags, pairs):
    """Fit a run of (src, dst) pairs, batching consecutive pairs that share a
    source. A chunk boundary may split one source's destinations; no row's
    result depends on which others share its batch."""
    out = []
    for i, group in groupby(pairs, key=lambda p: p[0]):
        out.extend(
            _fit_source(values, designs, symbols, window_id, lags, i, [j for _, j in group])
        )
    return out


_SCAN_CTX = None


def _scan_init(*context):
    global _SCAN_CTX
    _SCAN_CTX = context


def _scan_chunk(pairs):
    return _fit_pairs(*_SCAN_CTX, pairs)


def check_aligned(universe: Sequence[PriceSeries]) -> None:
    """Require every series to share the first one's window id and length.

    Raises:
        MisalignedCalendar: naming the first series that differs.
    """
    window_id = universe[0].window_id
    n = len(universe[0])
    for p in universe:
        if p.window_id != window_id or len(p) != n:
            raise MisalignedCalendar(
                f"{p.symbol} is not aligned to window {window_id!r} of length {n}"
            )


def scan_pairs(
    universe: Sequence[PriceSeries],
    epsilon: float = 0.05,
    direction_policy: str = DIRECTION_BOTH,
    workers: int = 1,
    lags: int | None = None,
) -> ScanResult:
    """Evaluate every ordered pair in the universe against the threshold.

    Results come back in canonical (src, dst) symbol order no matter how many
    workers ran the fits, so repeated scans are byte-identical. Pairs whose
    fit raises (degenerate, too short, ...) land in the skipped list instead
    of being dropped.

    Args:
        universe: aligned PriceSeries, one per symbol.
        epsilon: admission threshold on the residual test p-value, in (0, 1).
        direction_policy: "both" fits x->y and y->x independently;
            "single" fits only the lexicographic direction (half the cost).
        workers: process count for the fan-out; 1 runs inline.
        lags: ADF lag override forwarded to every fit.
    """
    if len(universe) < 2:
        raise UniverseTooSmall(f"need at least 2 symbols, got {len(universe)}")
    if not 0.0 <= epsilon < 1.0:
        # epsilon = 0 is allowed and admits nothing (p-values are clamped
        # strictly above zero); it is useful for dry-run scans
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    symbols = [p.symbol for p in universe]
    if len(set(symbols)) != len(symbols):
        raise ValueError("universe contains duplicate symbols")
    check_aligned(universe)
    window_id = universe[0].window_id

    pairs = _ordered_pairs(symbols, direction_policy)
    values = np.vstack([p.values for p in universe])

    # what every chunk shares, each symbol's ADF designs included: they are
    # built once per scan
    lag = _batch_lag(values.shape[1], lags)
    designs = None if lag is None else stats.adf_designs(values, lag)
    context = (values, designs, tuple(symbols), window_id, lags)
    if workers <= 1 or len(pairs) < 64:
        raw = _fit_pairs(*context, pairs)
    else:
        chunks = _split(pairs, workers * 4)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_scan_init,
            initargs=context,
        ) as pool:
            raw = [r for chunk in pool.map(_scan_chunk, chunks) for r in chunk]

    results = []
    skipped = []
    for i, j, fields, reason in raw:
        if fields is None:
            skipped.append(SkippedPair(symbols[i], symbols[j], reason))
            continue
        beta0, beta1, resid_mean, resid_std, pvalue, adf_stat = fields
        model = CointModel(beta0, beta1, resid_mean, resid_std, pvalue, adf_stat, window_id)
        results.append(
            PairResult(
                src_symbol=symbols[i],
                dst_symbol=symbols[j],
                model=model,
                admitted=pvalue < epsilon and resid_std > 0.0,
            )
        )
    results.sort(key=lambda r: (r.src_symbol, r.dst_symbol))
    skipped.sort(key=lambda r: (r.src_symbol, r.dst_symbol))
    return ScanResult(pairs=tuple(results), skipped=tuple(skipped))


def _split(items: list, parts: int) -> Iterable[list]:
    parts = max(1, min(parts, len(items)))
    size = (len(items) + parts - 1) // parts
    return [items[k : k + size] for k in range(0, len(items), size)]

