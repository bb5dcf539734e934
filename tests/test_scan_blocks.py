"""The block scan's invariants.

scan_pairs fits both directions of an unordered pair together, runs in
blocks of unordered pairs, and starts a process pool only above a size
threshold. None of that may change a single bit of its output.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointwatch import coint
from cointwatch.coint import DIRECTION_BOTH, DIRECTION_SINGLE, PriceSeries, scan_pairs

from test_scan_kernel import assert_scan_matches, walkers


@pytest.mark.parametrize("lags", [None, 33, 51])
def test_pair_bits_do_not_depend_on_the_symbol_order(lags):
    # a pair fitted as a block's forward direction in one order is its
    # backward direction in the reverse order; on 250 days, 51 lags make
    # designs of 53 columns, whose products a multithreaded BLAS splits
    # over threads
    universe = walkers(15, 8, 250)
    want = repr(scan_pairs(universe, lags=lags))
    assert repr(scan_pairs(universe[::-1], lags=lags)) == want


def shuffled(universe, seed):
    order = np.random.default_rng(seed).permutation(len(universe))
    return [universe[k] for k in order]


def n_fits(n_symbols, direction):
    n_pairs = n_symbols * (n_symbols - 1) // 2
    return n_pairs if direction == DIRECTION_SINGLE else 2 * n_pairs


def above_pool_threshold(n_days, direction):
    """A universe with just more directed fits than the pool threshold, in
    an unsorted symbol order, with a constant symbol among them."""
    n = 2
    while n_fits(n, direction) <= coint._POOL_MIN_FITS:
        n += 1
    universe = walkers(11, n - 1, n_days) + [PriceSeries("K", np.full(n_days, 9.0), "w")]
    return shuffled(universe, 11)


@pytest.mark.parametrize("direction", [DIRECTION_BOTH, DIRECTION_SINGLE])
def test_worker_count_invariance_above_the_pool_threshold(direction):
    universe = above_pool_threshold(40, direction)
    solo = scan_pairs(universe, direction_policy=direction, workers=1)
    assert solo.skipped
    for workers in (2, 8):
        spy = mock.patch.object(coint, "ProcessPoolExecutor", wraps=coint.ProcessPoolExecutor)
        with spy as pool:
            pooled = scan_pairs(universe, direction_policy=direction, workers=workers)
        assert pool.called
        assert repr(pooled) == repr(solo)


def test_no_pool_at_or_below_the_threshold():
    universe = walkers(12, 20, 60)
    with mock.patch.object(coint, "ProcessPoolExecutor") as pool:
        scan_pairs(universe, workers=8)
    assert not pool.called


def test_the_threshold_counts_directed_fits():
    # enough unordered pairs to start the pool when both directions are
    # fitted, but one direction alone runs inline
    universe = above_pool_threshold(30, DIRECTION_BOTH)
    assert n_fits(len(universe), DIRECTION_SINGLE) <= coint._POOL_MIN_FITS
    with mock.patch.object(coint, "ProcessPoolExecutor") as pool:
        scan_pairs(universe, direction_policy=DIRECTION_SINGLE, workers=2)
    assert not pool.called


@pytest.mark.parametrize("direction", [DIRECTION_BOTH, DIRECTION_SINGLE])
def test_unsorted_universe_comes_back_in_canonical_order(direction):
    universe = shuffled(walkers(13, 9, 120) + [PriceSeries("K", np.full(120, 4.0), "w")], 13)
    result = assert_scan_matches(universe, direction)
    for items in (result.pairs, result.skipped):
        keys = [(p.src_symbol, p.dst_symbol) for p in items]
        assert keys == sorted(keys)
    if direction == DIRECTION_SINGLE:
        assert all(p.src_symbol < p.dst_symbol for p in result.pairs + result.skipped)


@settings(max_examples=30, deadline=None)
@given(
    n_symbols=st.integers(2, 9),
    n_days=st.sampled_from([2, 3, 4, 5, 6, 9, 40]),
    constant=st.booleans(),
    block=st.sampled_from([1, 7, 64]),
    direction=st.sampled_from([DIRECTION_BOTH, DIRECTION_SINGLE]),
    lags=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_skips_and_short_windows_match_the_oracle(
    n_symbols, n_days, constant, block, direction, lags, seed
):
    universe = walkers(seed, n_symbols, n_days)
    if constant:
        universe.insert(seed % (n_symbols + 1), PriceSeries("K", np.full(n_days, 3.0), "w"))
    universe = shuffled(universe, seed)
    with mock.patch.object(coint, "_BLOCK_PAIRS", block):
        assert_scan_matches(universe, direction, lags)


@pytest.mark.parametrize("n_symbols,n_days,seed", [(3, 6, 4), (7, 4, 34921)])
def test_short_windows_where_the_moments_cancel_match_the_oracle(n_symbols, n_days, seed):
    # examples the test above found: one row's ADF fit is nearly exact
    # (y'y / rss ~ 1e7), another's moment matrix is formed by cancelling
    # terms 1.6e5 times its size; both passed the condition-number limit
    # and were ~1e-9 relative off coint_fit's t-ratio
    assert_scan_matches(shuffled(walkers(seed, n_symbols, n_days), seed))


@pytest.mark.parametrize("direction", [DIRECTION_BOTH, DIRECTION_SINGLE])
def test_block_size_does_not_change_a_bit(direction):
    universe = shuffled(walkers(14, 14, 250) + [PriceSeries("K", np.full(250, 4.0), "w")], 14)
    want = repr(scan_pairs(universe, direction_policy=direction))
    for block in (1, 7, 13):
        with mock.patch.object(coint, "_BLOCK_PAIRS", block):
            assert repr(scan_pairs(universe, direction_policy=direction)) == want
