import numpy as np
import pytest

from cointwatch import coint, synth
from cointwatch.coint import PriceSeries, coint_fit, scan_pairs
from cointwatch.errors import (
    DegeneratePair,
    LengthMismatch,
    MisalignedCalendar,
    UniverseTooSmall,
)


def true_pair(seed, n=250):
    rng = np.random.default_rng(seed)
    x = 200.0 + np.cumsum(rng.standard_normal(n))
    y = 2.0 + 0.8 * x + rng.standard_normal(n)
    return PriceSeries("X", x, "w"), PriceSeries("Y", y, "w")


def independent_pair(seed, n=250):
    rng = np.random.default_rng(seed)
    x = 200.0 + np.cumsum(rng.standard_normal(n))
    y = 200.0 + np.cumsum(rng.standard_normal(n))
    return PriceSeries("X", x, "w"), PriceSeries("Y", y, "w")


def walk_universe(seed, symbols, n=120, window_id="w"):
    rng = np.random.default_rng(seed)
    return [
        PriceSeries(s, 200.0 + np.cumsum(rng.standard_normal(n)), window_id) for s in symbols
    ]


class TestPriceSeries:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PriceSeries("A", [1.0, 0.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PriceSeries("A", [1.0, float("nan")])

    def test_is_immutable(self):
        p = PriceSeries("A", [1.0, 2.0], "w")
        for name in ("symbol", "window_id", "series", "other"):
            with pytest.raises(AttributeError, match="PriceSeries is immutable"):
                setattr(p, name, "B")
        assert (p.symbol, p.window_id, list(p.values)) == ("A", "w", [1.0, 2.0])

    def test_repr_names_symbol_length_and_window(self):
        assert repr(PriceSeries("A", [1.0, 2.0, 3.0], "2015-01-02:2015-01-04")) == (
            "PriceSeries('A', n=3, window='2015-01-02:2015-01-04')"
        )


class TestCointFit:
    def test_cointegrated_pairs_admitted(self):
        # frozen seed base 2000: the 100-draw outcome (96 admits, 9 spurious
        # below) sits at the measured long-run rates (~97% / ~10.3% over
        # 2000 reps), so this is a representative draw, not a lucky one
        admitted = 0
        beta_ok = 0
        for k in range(100):
            x, y = true_pair(2000 + k)
            m = coint_fit(x, y)
            admitted += m.pvalue < 0.05
            beta_ok += abs(m.beta1 - 0.8) <= 0.1
        assert admitted >= 95
        assert beta_ok == 100

    def test_independent_walks_rarely_admitted(self):
        admitted = 0
        for k in range(100):
            x, y = independent_pair(52_000 + k)
            m = coint_fit(x, y)
            admitted += m.pvalue < 0.05
        assert admitted <= 12

    def test_identical_series_degenerate(self):
        x, _ = true_pair(0)
        y = PriceSeries("Y", x.values, "w")
        with pytest.raises(DegeneratePair):
            coint_fit(x, y)

    def test_window_mismatch(self):
        x, _ = true_pair(1)
        y = PriceSeries("Y", x.values * 1.5 + 3.0, "other-window")
        with pytest.raises(MisalignedCalendar):
            coint_fit(x, y)

    def test_model_fields_populated(self):
        x, y = true_pair(5)
        m = coint_fit(x, y)
        assert m.window_id == "w"
        assert m.resid_std > 0
        assert 0.0 <= m.pvalue <= 1.0
        assert np.isfinite(m.adf_stat)

    def test_deterministic(self):
        x, y = true_pair(6)
        assert coint_fit(x, y) == coint_fit(x, y)

    def test_directions_are_independent_fits(self):
        x, y = true_pair(7)
        xy = coint_fit(x, y)
        yx = coint_fit(y, x)
        assert xy.beta1 != yx.beta1


class TestScanPairs:
    def test_three_symbols_both_directions(self):
        universe = walk_universe(0, ["A", "B", "C"])
        result = scan_pairs(universe, epsilon=0.05)
        assert len(result.pairs) + len(result.skipped) == 6

    def test_single_direction_policy(self):
        universe = walk_universe(1, ["A", "B", "C"])
        result = scan_pairs(universe, direction_policy=coint.DIRECTION_SINGLE)
        assert len(result.pairs) + len(result.skipped) == 3
        for p in result.pairs:
            assert p.src_symbol < p.dst_symbol

    def test_epsilon_zero_admits_nothing(self):
        universe = walk_universe(2, ["A", "B", "C"])
        result = scan_pairs(universe, epsilon=0.0)
        assert result.admitted == ()

    def test_universe_too_small(self):
        with pytest.raises(UniverseTooSmall):
            scan_pairs(walk_universe(3, ["A"]))

    def test_misaligned_lengths(self):
        a, b = walk_universe(4, ["A", "B"])
        short = PriceSeries("B", b.values[:-5], "w")
        with pytest.raises(MisalignedCalendar):
            scan_pairs([a, short])

    def test_misaligned_windows(self):
        a, b = walk_universe(5, ["A", "B"])
        other = PriceSeries("B", b.values, "different")
        with pytest.raises(MisalignedCalendar):
            scan_pairs([a, other])

    def test_duplicate_symbols_rejected(self):
        a, b = walk_universe(6, ["A", "A"])
        with pytest.raises(ValueError):
            scan_pairs([a, b])

    def test_canonical_order(self):
        universe = walk_universe(7, ["D", "B", "C", "A"])
        result = scan_pairs(universe)
        keys = [(p.src_symbol, p.dst_symbol) for p in result.pairs]
        assert keys == sorted(keys)

    def test_skipped_pairs_reported(self):
        a, b = walk_universe(8, ["A", "B"])
        const = PriceSeries("K", np.full(len(a), 42.0), "w")
        result = scan_pairs([a, b, const])
        skipped_keys = {(s.src_symbol, s.dst_symbol) for s in result.skipped}
        # constant symbol fails as regressor and as (degenerate) response
        assert ("K", "A") in skipped_keys and ("A", "K") in skipped_keys
        assert all("K" in key for key in skipped_keys)
        assert len(result.pairs) + len(result.skipped) == 6

    def test_worker_counts_byte_identical(self):
        # 9 symbols = 72 ordered pairs, above the inline cutoff, so the
        # two-worker run really goes through the process pool
        universe = walk_universe(9, [f"S{i}" for i in range(9)], n=100)
        solo = scan_pairs(universe, workers=1)
        duo = scan_pairs(universe, workers=2)
        assert repr(solo) == repr(duo)

    def test_admission_monotone_in_epsilon(self):
        series = synth.universe_series(
            synth.planted_universe(n_clusters=1, cluster_size=4, n_independent=2, seed=11).table
        ).series
        loose = {(p.src_symbol, p.dst_symbol) for p in scan_pairs(series, epsilon=0.10).admitted}
        tight = {(p.src_symbol, p.dst_symbol) for p in scan_pairs(series, epsilon=0.01).admitted}
        assert tight <= loose

    def test_planted_structure_recovered(self):
        universe = synth.planted_universe(
            n_clusters=1, cluster_size=5, n_independent=5, seed=3
        )
        series = synth.universe_series(universe.table).series
        result = scan_pairs(series, epsilon=0.05)
        cluster = set(universe.clusters[0])
        within = [
            p for p in result.pairs if p.src_symbol in cluster and p.dst_symbol in cluster
        ]
        outside = [
            p
            for p in result.pairs
            if p.src_symbol not in cluster or p.dst_symbol not in cluster
        ]
        within_rate = sum(p.admitted for p in within) / len(within)
        outside_rate = sum(p.admitted for p in outside) / len(outside)
        assert within_rate >= 0.8
        assert outside_rate <= 0.2
