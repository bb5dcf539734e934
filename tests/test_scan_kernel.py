"""The batched pair-fit kernel of scan_pairs against the per-pair path.

scan_pairs fits blocks of unordered pairs, both directions of each pair at
once; coint._fit_one (coint_fit on one pair) is the oracle. The OLS fields
must match bit for bit, the ADF statistic and p-value to rounding, and
admission and skip reasons exactly. Rows the kernel cannot vouch for go
back to the oracle, so they must match it exactly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointwatch import coint, stats, synth
from cointwatch.coint import DIRECTION_BOTH, DIRECTION_SINGLE, PriceSeries, SkippedPair, scan_pairs

from conftest import batch_models, residual_statistics

EPSILON = 0.05


def oracle(universe, direction, lags):
    """Per-pair results keyed by (src, dst) symbol, one _fit_one call each."""
    values = np.vstack([p.values for p in universe])
    symbols = [p.symbol for p in universe]
    window_id = universe[0].window_id
    idx = range(len(symbols))
    return {
        (symbols[i], symbols[j]): coint._fit_one(values, symbols, window_id, lags, (i, j))
        for i in idx
        for j in idx
        if i != j and (direction == DIRECTION_BOTH or symbols[i] < symbols[j])
    }


def assert_scan_matches(universe, direction=DIRECTION_BOTH, lags=None):
    result = scan_pairs(universe, epsilon=EPSILON, direction_policy=direction, lags=lags)
    got = {(p.src_symbol, p.dst_symbol): p for p in result.pairs + result.skipped}
    want = oracle(universe, direction, lags)
    assert len(result.pairs) + len(result.skipped) == len(want)
    assert got.keys() == want.keys()
    for key, (_, _, fields, reason) in want.items():
        item = got[key]
        if fields is None:
            assert item == SkippedPair(*key, reason)
            continue
        beta0, beta1, resid_mean, resid_std, pvalue, adf_stat = fields
        m = item.model
        assert repr((m.beta0, m.beta1, m.resid_mean, m.resid_std)) == repr(
            (beta0, beta1, resid_mean, resid_std)
        )
        # relative for |t| >= 1; a t-ratio near zero gets the same 1e-9 as
        # an absolute bound, since its relative error is no measure there
        assert m.adf_stat == pytest.approx(adf_stat, rel=1e-9, abs=1e-9)
        assert m.pvalue == pytest.approx(pvalue, rel=1e-9)
        assert item.admitted == (pvalue < EPSILON and resid_std > 0.0)
    return result


def walkers(seed, n_symbols, n_days):
    rng = np.random.default_rng(seed)
    return [
        PriceSeries(f"W{k}", 200.0 + np.cumsum(rng.standard_normal(n_days)), "w")
        for k in range(n_symbols)
    ]


@st.composite
def universes(draw):
    """Planted clusters plus random walkers, now and then a constant or an
    exactly affine symbol, at a few price scales and window lengths."""
    n_days = draw(st.sampled_from([12, 40, 120, 250]))
    planted = synth.planted_universe(
        n_clusters=draw(st.integers(0, 2)),
        cluster_size=draw(st.integers(2, 4)),
        n_independent=draw(st.integers(2, 4)),
        n_days=n_days,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    universe = [
        PriceSeries(p.symbol, p.values * scale, p.window_id)
        for p in synth.universe_series(planted.table).series
    ]
    window_id = universe[0].window_id
    if draw(st.booleans()):
        universe.append(PriceSeries("KONST", np.full(n_days, 42.0 * scale), window_id))
    if draw(st.booleans()):
        universe.append(PriceSeries("AFFINE", 3.0 * scale + 2.0 * universe[0].values, window_id))
    return universe


@settings(max_examples=40, deadline=None)
@given(universe=universes(), data=st.data())
def test_scan_matches_per_pair_fits(universe, data):
    n_days = len(universe[0])
    # n_days // 2 leaves no more regression rows than coefficients
    lags = data.draw(st.sampled_from([None, 0, 3, n_days // 2]))
    direction = data.draw(st.sampled_from([DIRECTION_BOTH, DIRECTION_SINGLE]))
    assert_scan_matches(universe, direction, lags)


@pytest.mark.parametrize("lags", [None, 0, 4, 60])
def test_lag_orders_on_a_random_universe(lags):
    # at 120 days, lags=60 leaves 59 rows for 62 coefficients: all skipped
    result = assert_scan_matches(walkers(5, 6, 120), lags=lags)
    assert (len(result.skipped) == 30) == (lags == 60)


def test_constant_source_and_destination():
    universe = walkers(1, 4, 120) + [PriceSeries("K", np.full(120, 42.0), "w")]
    result = assert_scan_matches(universe)
    reasons = {(s.src_symbol, s.dst_symbol): s.reason for s in result.skipped}
    assert all(reasons[("K", f"W{k}")].startswith("DegenerateRegressor") for k in range(4))
    assert all(reasons[(f"W{k}", "K")].startswith("DegeneratePair") for k in range(4))


def test_exact_affine_destination():
    universe = walkers(2, 4, 250)
    base = universe[0].values
    universe += [
        PriceSeries("A1", 3.0 + 2.0 * base, "w"),
        PriceSeries("A2", 1.5 + 0.7 * base, "w"),
    ]
    result = assert_scan_matches(universe)
    skipped = {(s.src_symbol, s.dst_symbol) for s in result.skipped}
    assert {("W0", "A1"), ("W0", "A2")} <= skipped


def test_near_collinear_lag_design_falls_back():
    # a sinusoid obeys a two-term recurrence, so with 2 lags the ADF
    # regression fits the differences to rounding: the normal equations
    # cannot vouch for that t-ratio and the row must take the lstsq path
    t = np.arange(250)
    x = PriceSeries("X", 100.0 + 0.05 * t, "w")
    y = PriceSeries("Y", 50.0 + 0.5 * x.values + np.sin(0.05 * t), "w")
    z = walkers(3, 1, 250)[0]
    resid = stats.ols_fit(x.series, y.series).residuals.values
    _, ok = residual_statistics(resid[None, :], 2)
    assert not ok[0]
    result = assert_scan_matches([x, y, z], lags=2)
    fallback = next(p for p in result.pairs if (p.src_symbol, p.dst_symbol) == ("X", "Y"))
    assert fallback.model == coint.coint_fit(x, y, lags=2)


def test_ill_conditioned_design_falls_back():
    # a residual spread of ~1e-4 against the unit constant column puts the
    # ADF Gram matrix's condition number far above the trust limit
    rng = np.random.default_rng(4)
    x = walkers(4, 1, 250)[0]
    y = PriceSeries("Y", 7.0 + 0.5 * x.values + 1e-4 * rng.standard_normal(250), "w")
    resid = stats.ols_fit(x.series, y.series).residuals.values
    _, ok = residual_statistics(resid[None, :], stats.default_lag(250))
    assert not ok[0]
    result = assert_scan_matches([x, y])
    fallback = next(p for p in result.pairs if p.src_symbol == "W0")
    assert fallback.model == coint.coint_fit(x, y)


def test_batch_rows_are_independent():
    rng = np.random.default_rng(6)
    resid = np.cumsum(rng.standard_normal((40, 120)), axis=1)
    resid[7] = 0.0  # singular Gram matrix in the middle of the batch
    stat, ok = residual_statistics(resid, 3)
    assert not ok[7] and ok[np.arange(40) != 7].all()
    for r in (0, 7, 39):
        one_stat, one_ok = residual_statistics(resid[r : r + 1], 3)
        assert one_ok[0] == ok[r]
        if ok[r]:
            assert one_stat[0] == stat[r]
            assert stat[r] == pytest.approx(stats.adf_statistic(resid[r], 3)[0], rel=1e-9)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize(
    "direction,lags", [(DIRECTION_BOTH, None), (DIRECTION_BOTH, 2), (DIRECTION_SINGLE, None),
                       (DIRECTION_SINGLE, 2)]
)
def test_worker_count_invariance(direction, lags, seed):
    # 12 symbols, 66 unordered pairs: far below the pool's size threshold,
    # which is lowered here so that the two-worker scan really runs in the
    # process pool
    universe = walkers(seed, 11, 100) + [PriceSeries("K", np.full(100, 9.0), "w")]
    solo = scan_pairs(universe, direction_policy=direction, workers=1, lags=lags)
    with mock.patch.object(coint, "_POOL_MIN_FITS", 0):
        duo = scan_pairs(universe, direction_policy=direction, workers=2, lags=lags)
    assert solo.skipped
    assert repr(solo) == repr(duo)


@settings(max_examples=5, deadline=None)
@given(universe=universes(), seed=st.integers(0, 2**32 - 1))
def test_pair_bits_do_not_depend_on_the_batch(universe, seed):
    # a pair's model is the same, bit for bit, from a one- or two-worker
    # scan and from fit_pairs alone, among unrelated pairs of the same
    # length, or with its series shared by other pairs of the call; a row
    # the batch declines is coint_fit's in every case
    n_days, window_id = len(universe[0]), universe[0].window_id
    rng = np.random.default_rng(seed)
    # at least 9 symbols, with the pool's size threshold lowered so that
    # the two-worker scan runs in the process pool
    universe += [
        PriceSeries(f"W{k}", 200.0 + np.cumsum(rng.standard_normal(n_days)), window_id)
        for k in range(max(0, 9 - len(universe)))
    ]
    solo = scan_pairs(universe, workers=1)
    with mock.patch.object(coint, "_POOL_MIN_FITS", 0):
        assert repr(solo) == repr(scan_pairs(universe, workers=2))
    strangers = [
        PriceSeries(f"Z{k}", 80.0 + np.cumsum(rng.standard_normal(n_days)), window_id)
        for k in range(6)
    ]
    others = list(zip(strangers[::2], strangers[1::2]))
    by_symbol = {p.symbol: p for p in universe}
    for k, result in enumerate(solo.pairs):
        x, y = pair = (by_symbol[result.src_symbol], by_symbol[result.dst_symbol])
        at = k % (len(others) + 1)
        alone = batch_models([pair])[0] or coint.coint_fit(*pair)
        mixed = batch_models(others[:at] + [pair] + others[at:])[at]
        # the reverse pair, and pairs from x and into y, use x's and y's rows
        sharing = [(y, x), (x, strangers[0]), (strangers[1], y), (strangers[2], x)]
        shared = batch_models(sharing[:at] + [pair] + sharing[at:])[at]
        assert repr(alone) == repr(result.model)
        assert repr(mixed or coint.coint_fit(*pair)) == repr(result.model)
        assert repr(shared or coint.coint_fit(*pair)) == repr(result.model)
