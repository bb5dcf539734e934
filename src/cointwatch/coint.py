"""Pairwise cointegration testing and the all-pairs universe scan.

A pair fit regresses y on x and runs the unit-root test on the residuals,
admitting the directed pair when the residual p-value clears the threshold.

Many pairs are fitted at once by one row kernel (_fit_rows). The OLS step
takes each series' mean, centered series and sum of squares once
(_ols_moments) and a pair's cross sum as one dot of two centered series,
with coint_fit's exact arithmetic, so the pair models' beta0, beta1,
resid_mean and resid_std are bit-identical to it. The ADF step never builds
a pair's residual design: each symbol's centered ADF design is built once
(stats.adf_designs), and a pair's residual moment matrix is combined from
its two symbols' Gram matrices and one fixed-shape cross product of their
designs, then factored by one Cholesky (stats.adf_pair_batch). That matches
coint_fit's least-squares solve to rounding. A degenerate or
ill-conditioned row (the trust gates of stats._BATCH_TRUST_LIMIT and
stats._BATCH_CANCEL_LIMIT) falls back to coint_fit itself, so every skip
reason is coint_fit's own. Each row's
result depends only on its own data: the scan's output is the same for any
worker count or block size, and a pair gets the same model bits from any
batch, in the scan or in a refit.

The scan walks the unordered pairs i < j of the universe in blocks of at
most _BLOCK_PAIRS and fits both directions of a pair together: y -> x uses
x -> y's OLS dot. Its memory is O(symbols * k * window) for the designs
built once per scan plus O(block * k^2) per block, for k ADF design
columns. A process pool runs contiguous block ranges, and only for scans
large enough to repay its start-up (_POOL_MIN_FITS). fit_pairs fits
arbitrary directed index pairs over one stack of aligned series (the refits
of a tick's broken edges): each series' moments and design are built once
per call, however many pairs share it, and since a row's arithmetic does
not depend on the others, a pair gets the scan's bits from any stack.

The results are columns from the blocks to the graph (late
materialisation, as in Abadi, Madden and Hachem, "Column-stores vs.
row-stores", SIGMOD 2008): the main process joins the blocks' columns and
puts them in canonical order by one sort, and ScanResult holds those
arrays. Its PairResult and SkippedPair tuples are built once, on first
read; graph.build_graph slices the admitted rows from the arrays, and
p-values are mapped in bulk (stats.adf_pvalues), so a build makes no
per-pair result object.

The batched fits run on one BLAS thread (stats.one_blas_thread, where
numpy's bundled OpenBLAS lets it be set): a product split over threads
rounds differently, and with long designs that changed a pair's last bits
with the thread count. Prices near the float64 limit can overflow a fit; its
row is declined, and coint_fit raises NonFiniteFit for it, so the pair is
skipped like any other pair that cannot be fit.

Caveat documented on purpose: the residual test reuses the plain
Dickey-Fuller p-value surface. Residuals from a fitted regression are known
to need more negative critical values, so admission is somewhat permissive
for truly unrelated walks (roughly 10% at epsilon=0.05 instead of the
nominal 5%). This behavior is part of the contract; do not "fix" it by
swapping in residual-specific critical values.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False, repr=False)
class ScanResult:
    """Canonically ordered scan output plus the pairs that could not be fit.

    Held as columns over the universe's symbols, in the scan's window: per
    fitted pair its src and dst symbol indices, its row of model floats
    (FIELDS) and whether it is admitted; per skipped pair its indices and
    reason. pairs, skipped and admitted are the tuples of objects, each
    built once, on first read; equality, hash and repr are those of (pairs,
    skipped).
    """

    symbols: tuple[str, ...]
    src: np.ndarray  # intp
    dst: np.ndarray  # intp
    fields: np.ndarray  # (n, 6) float64
    window_id: str
    admit: np.ndarray  # bool
    skipped_src: np.ndarray  # intp
    skipped_dst: np.ndarray  # intp
    reasons: tuple[str, ...]

    # the model floats of a fields row, in order
    FIELDS = ("beta0", "beta1", "resid_mean", "resid_std", "pvalue", "adf_stat")

    @cached_property
    def pairs(self) -> tuple[PairResult, ...]:
        symbols, window_id = self.symbols, self.window_id
        return tuple(
            PairResult(symbols[i], symbols[j], CointModel(*model, window_id), admit)
            for i, j, model, admit in zip(
                self.src.tolist(), self.dst.tolist(), self.fields.tolist(), self.admit.tolist()
            )
        )

    @cached_property
    def skipped(self) -> tuple[SkippedPair, ...]:
        symbols = self.symbols
        return tuple(
            SkippedPair(symbols[i], symbols[j], reason)
            for i, j, reason in zip(
                self.skipped_src.tolist(), self.skipped_dst.tolist(), self.reasons
            )
        )

    @cached_property
    def admitted(self) -> tuple[PairResult, ...]:
        return tuple(p for p in self.pairs if p.admitted)

    def __eq__(self, other):
        if not isinstance(other, ScanResult):
            return NotImplemented
        return (self.pairs, self.skipped) == (other.pairs, other.skipped)

    def __hash__(self):
        return hash((self.pairs, self.skipped))

    def __repr__(self):
        return f"ScanResult(pairs={self.pairs!r}, skipped={self.skipped!r})"


def admits(fields: np.ndarray, epsilon: float) -> np.ndarray:
    """The admission rule on rows of ScanResult.FIELDS floats, for the scan,
    graph.build_graph and the refits: pvalue < epsilon with resid_std > 0."""
    return (fields[:, 4] < epsilon) & (fields[:, 3] > 0.0)


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


def _ols_moments(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Each row's mean, centered series (a list of rows) and sum of squares
    about the mean, with stats.ols_fit's arithmetic: a row's dot with
    another's centered series is ols_fit's sxy, and with its own its sxx."""
    mean = values.mean(axis=1)
    centered = list(values - mean[:, None])
    return mean, centered, np.array([c.dot(c) for c in centered])


def _fit_rows(
    values: np.ndarray, src: np.ndarray, dst: np.ndarray, mean: np.ndarray, sxx: np.ndarray,
    sxy: np.ndarray, moments: stats.AdfMoments, cross: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit values[src[r]] -> values[dst[r]] for every row r as coint_fit
    does, all rows at once.

    mean and sxx are the OLS moments of values' rows (_ols_moments), sxy
    each pair's cross sum, moments the moments of values' ADF designs
    (stats.adf_designs), and cross holds each pair's product e_x @ e_y.T of
    its two designs. The OLS step runs exactly as stats.ols_fit does, so
    beta0, beta1, resid_mean and resid_std equal coint_fit's bit for bit;
    the ADF step runs on the pairs' moments (stats.adf_pair_batch), and a
    row's result depends on that row alone.
    Returns (fields, ok): one (beta0, beta1, resid_mean, resid_std, pvalue,
    adf_stat) row per pair, and ok False for a row the batch cannot vouch
    for (zero regressor or residual spread, an untrusted ADF solve, a
    non-finite value): coint_fit must decide that row. Runs under
    _kernel_scope, which silences the warnings of the rows it declines.
    """
    x, y = values[src], values[dst]
    x_mean, y_mean = mean[src], mean[dst]
    # a constant regressor (sxx == 0) makes its row NaN, declined below
    beta1 = sxy / sxx[src]
    beta0 = y_mean - beta1 * x_mean
    resid = y - beta0[:, None] - beta1[:, None] * x
    resid_mean = resid.mean(axis=1)
    resid_std = resid.std(axis=1, ddof=1)
    stat, ok = stats.adf_pair_batch(moments.take(src), moments.take(dst), cross, beta0, beta1)
    ok &= (resid_std != 0.0) & np.isfinite(beta0 + beta1 + resid_mean + resid_std)
    pvalue = np.full(len(ok), np.nan)
    pvalue[ok] = stats.adf_pvalues(stat[ok])
    return np.column_stack([beta0, beta1, resid_mean, resid_std, pvalue, stat]), ok


@contextlib.contextmanager
def _kernel_scope():
    """What the batched fits run under, once per scan_pairs or fit_pairs
    call: one BLAS thread (stats.one_blas_thread), so a product's bits do
    not depend on the thread count, and no floating-point warnings, since a
    row that overflows or divides by zero is declined by its mask and
    decided by coint_fit."""
    with stats.one_blas_thread(), np.errstate(all="ignore"):
        yield


def fit_pairs(values: np.ndarray, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """coint_fit(x, y) for every directed pair x = values[src[r]] ->
    y = values[dst[r]], fitted together.

    values holds one price series per row, all of one window. Each row's
    OLS moments and ADF design are built once per call, however many pairs
    share it, with the Schwert default lag. Returns (fields, ok) as
    _fit_rows does: each pair's model floats, in ScanResult.FIELDS order,
    the same as coint_fit's but for the last digits of pvalue and adf_stat,
    and ok False for a pair the batch cannot vouch for (a window too short
    for the lag rule, or a row _fit_rows declines). Call coint_fit on
    those; it gives their model or raises their error.
    """
    src, dst = np.asarray(src, np.intp), np.asarray(dst, np.intp)
    lag = _batch_lag(values.shape[1], None)
    if lag is None:
        return np.empty((len(src), 6)), np.zeros(len(src), bool)
    with _kernel_scope():
        mean, centered, sxx = _ols_moments(values)
        sxy = np.array([centered[i].dot(centered[j]) for i, j in zip(src.tolist(), dst.tolist())])
        e, moments = stats.adf_designs(values, lag)
        return _fit_rows(values, src, dst, mean, sxx, sxy, moments,
                         e[src] @ e[dst].transpose(0, 2, 1))


# Unordered pairs per block of the scan. Small blocks keep the per-block
# arrays in cache: on 50-symbol, 250-day sectors, blocks of 128 or 256 pairs
# scanned 20-30% slower and raised peak memory by 3-9 MB.
_BLOCK_PAIRS = 64

# The scan starts a process pool only for more directed fits than this:
# below it the pool's start and shutdown (50-70 ms) cost more than the
# second process saves. Measured with 250-day windows on 2 cores, both
# directions: inline wins at 80 symbols (6,320 fits), the pool at 90
# (8,010 fits).
_POOL_MIN_FITS = 8_000


class _Scan(NamedTuple):
    """What every block of one scan reads: the universe's prices, symbols
    and ranks (positions in sorted symbol order), its OLS moments and ADF
    designs (None when the window is too short for the batch), and the
    unordered pairs i < j in row-major order."""

    values: np.ndarray
    symbols: tuple[str, ...]
    rank: np.ndarray
    window_id: str
    lags: int | None
    single: bool
    ols: tuple[np.ndarray, list[np.ndarray], np.ndarray]
    designs: tuple[np.ndarray, stats.AdfMoments] | None
    first: np.ndarray
    second: np.ndarray


def _fit_block(scan: _Scan, lo: int, hi: int):
    """Fit the directed pairs of unordered pairs lo..hi-1 of the scan.

    Both directions of a pair share one OLS dot, c_i @ c_j being c_j @ c_i.
    Each direction takes its own cross product of the two ADF designs,
    e_x @ e_y.T, since a BLAS need not round C_ji as C_ij transposed. They
    are taken per source run, over a slice of the destinations' designs, so
    no design is copied. Any row the batch declines, and every row of a
    window too short, goes through _fit_one, so skip reasons are
    coint_fit's own.
    Returns the columns (src, dst, fields, ok) of _fit_rows, with the
    fallback's fits filled in, and the skip reasons of the rows still not
    ok, in row order.
    """
    first, second = scan.first[lo:hi], scan.second[lo:hi]
    if scan.single:  # only the lexicographic direction
        forward = scan.rank[first] < scan.rank[second]
        backward = ~forward
    else:
        forward = backward = np.ones(len(first), bool)
    src = np.concatenate([first[forward], second[backward]])
    dst = np.concatenate([second[forward], first[backward]])
    if scan.designs is None:
        fields, ok = np.empty((len(src), 6)), np.zeros(len(src), bool)
    else:
        e, moments = scan.designs
        mean, centered, sxx = scan.ols
        # a source's destinations in the block are one run j0..j1-1
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        ends = second[starts] + np.diff(starts, append=len(first))
        runs = list(zip(first[starts].tolist(), second[starts].tolist(), ends.tolist()))
        cross = np.concatenate([e[i] @ e[j0:j1].transpose(0, 2, 1) for i, j0, j1 in runs])
        reverse = np.concatenate([e[j0:j1] @ e[i].T for i, j0, j1 in runs])
        sxy = np.array([centered[i].dot(centered[j])
                        for i, j in zip(first.tolist(), second.tolist())])
        fields, ok = _fit_rows(
            scan.values, src, dst, mean, sxx, np.concatenate([sxy[forward], sxy[backward]]),
            moments, np.concatenate([cross[forward], reverse[backward]]),
        )
    reasons = []
    for r in np.flatnonzero(~ok).tolist():
        _, _, fitted, reason = _fit_one(
            scan.values, scan.symbols, scan.window_id, scan.lags, (int(src[r]), int(dst[r]))
        )
        if fitted is None:
            reasons.append(reason)
        else:
            fields[r], ok[r] = fitted, True
    return src, dst, fields, ok, reasons


def _fit_blocks(scan: _Scan, lo: int, hi: int):
    """_fit_block over unordered pairs lo..hi-1, one block at a time."""
    for k in range(lo, hi, _BLOCK_PAIRS):
        yield _fit_block(scan, k, min(k + _BLOCK_PAIRS, hi))


_SCAN: _Scan | None = None


def _scan_init(scan: _Scan) -> None:
    global _SCAN
    _SCAN = scan
    stats.set_blas_threads(1)  # as _kernel_scope, for the worker's lifetime


def _scan_range(bounds: tuple[int, int]) -> list:
    with np.errstate(all="ignore"):  # as _kernel_scope
        return list(_fit_blocks(_SCAN, *bounds))


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


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the admission threshold is in [0, 1)."""
    if not 0.0 <= epsilon < 1.0:
        # epsilon = 0 is allowed and admits nothing (p-values are clamped
        # strictly above zero); it is useful for dry-run scans
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")


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
        epsilon: admission threshold on the residual test p-value, in [0, 1);
            0 admits nothing.
        direction_policy: "both" fits x->y and y->x independently;
            "single" fits only the lexicographic direction (half the cost).
        workers: an upper bound on the processes the fits fan out to. A
            scan of at most _POOL_MIN_FITS directed fits, or workers <= 1,
            runs inline: there a pool costs more to start than it saves.
            The result is the same either way.
        lags: ADF lag override forwarded to every fit.
    """
    if len(universe) < 2:
        raise UniverseTooSmall(f"need at least 2 symbols, got {len(universe)}")
    check_epsilon(epsilon)
    symbols = tuple(p.symbol for p in universe)
    if len(set(symbols)) != len(symbols):
        raise ValueError("universe contains duplicate symbols")
    check_aligned(universe)
    window_id = universe[0].window_id

    if direction_policy not in (DIRECTION_BOTH, DIRECTION_SINGLE):
        raise ValueError(f"unknown direction policy {direction_policy!r}")
    values = np.vstack([p.values for p in universe])
    rank = np.empty(len(symbols), np.intp)
    rank[sorted(range(len(symbols)), key=symbols.__getitem__)] = np.arange(len(symbols))
    first, second = np.triu_indices(len(symbols), 1)
    single = direction_policy == DIRECTION_SINGLE
    n_pairs = len(first)
    with _kernel_scope():
        # each symbol's OLS moments and ADF designs are built once per scan
        lag = _batch_lag(values.shape[1], lags)
        designs = None if lag is None else stats.adf_designs(values, lag)
        scan = _Scan(
            values, symbols, rank, window_id, lags, single, _ols_moments(values), designs,
            first, second,
        )
        if workers <= 1 or (n_pairs if single else 2 * n_pairs) <= _POOL_MIN_FITS:
            return _assemble(_fit_blocks(scan, 0, n_pairs), scan, epsilon)
        # contiguous whole blocks, a few ranges per worker to even out the load
        size = -(-n_pairs // (workers * 4 * _BLOCK_PAIRS)) * _BLOCK_PAIRS
        ranges = [(lo, min(lo + size, n_pairs)) for lo in range(0, n_pairs, size)]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(ranges)), initializer=_scan_init, initargs=(scan,)
        ) as pool:
            parts = (part for blocks in pool.map(_scan_range, ranges) for part in blocks)
            return _assemble(parts, scan, epsilon)


def _assemble(parts, scan: _Scan, epsilon: float) -> ScanResult:
    """The ScanResult of the scan's blocks (_fit_block's columns): the
    blocks' columns joined, then the fitted and the skipped rows each put in
    canonical (src, dst) symbol order by one sort on symbol ranks."""
    src, dst, fields, ok, reasons = zip(*parts)
    src, dst, fields, ok = map(np.concatenate, (src, dst, fields, ok))
    reasons = [reason for block in reasons for reason in block]
    key = scan.rank[src] * len(scan.symbols) + scan.rank[dst]
    fitted, failed = np.flatnonzero(ok), np.flatnonzero(~ok)
    fitted = fitted[np.argsort(key[fitted])]
    skip_order = np.argsort(key[failed])
    failed = failed[skip_order]
    fields = fields[fitted]
    return ScanResult(
        symbols=scan.symbols,
        src=src[fitted],
        dst=dst[fitted],
        fields=fields,
        window_id=scan.window_id,
        admit=admits(fields, epsilon),
        skipped_src=src[failed],
        skipped_dst=dst[failed],
        reasons=tuple(map(reasons.__getitem__, skip_order.tolist())),
    )
