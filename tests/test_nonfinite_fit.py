"""Prices near the float64 limit: a fit that overflows is a package error.

A symbol scaled by 1e305 loads (every close is finite), but its pair fits
overflow: the OLS residuals or their spread are not finite. coint_fit
raises NonFiniteFit, so the scan lists those pairs as skipped and `build`
succeeds, a refit of such a pair removes the edge, and no RuntimeWarning
reaches the caller.
"""

import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from cointwatch import alert, synth
from cointwatch.cli import main
from cointwatch.coint import PairResult, PriceSeries, coint_fit, fit_pairs, scan_pairs
from cointwatch.errors import CointwatchError, NonFiniteFit
from cointwatch.graph import build_graph
from cointwatch.pipeline import load_graph, write_prices_csv

from conftest import dummy_model

SCALE = 1e305


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def scaled_universe(seed=1, n_days=250):
    """A planted cluster of 3 and 2 walkers, the second cluster member
    scaled by SCALE."""
    universe = synth.planted_universe(
        n_clusters=1, cluster_size=3, n_independent=2, n_days=n_days, seed=seed
    )
    series = list(synth.universe_series(universe.table).series)
    big = series[1]
    series[1] = PriceSeries(big.symbol, big.values * SCALE, big.window_id)
    return series


def test_coint_fit_raises_a_package_error_both_ways():
    series = scaled_universe()
    big, other = series[1], series[0]
    for x, y in ((big, other), (other, big)):
        with pytest.raises(NonFiniteFit, match="not finite"):
            coint_fit(x, y)
    assert issubclass(NonFiniteFit, CointwatchError)


def test_the_batch_declines_an_overflowing_pair():
    series = scaled_universe()
    values = np.array([p.values for p in series])
    _, ok = fit_pairs(values, [1, 0], [0, 2])
    assert ok.tolist() == [False, True]


def test_the_scan_skips_the_overflowing_symbol():
    series = scaled_universe()
    big = series[1].symbol
    scan = scan_pairs(series)
    assert {(s.src_symbol, s.dst_symbol) for s in scan.skipped} == {
        (a, b) for a in (p.symbol for p in series) for b in (p.symbol for p in series)
        if a != b and big in (a, b)
    }
    assert all(s.reason.startswith("NonFiniteFit: ") for s in scan.skipped)
    assert len(scan.pairs) == 5 * 4 - 8


def test_build_exits_zero_and_lists_the_skips(tmp_path, capsys):
    series = scaled_universe()
    calendar = [date(2020, 1, 1) + timedelta(days=k) for k in range(len(series[0]))]
    prices = tmp_path / "prices.csv"
    write_prices_csv(prices, calendar, {p.symbol: p.values for p in series})
    out = tmp_path / "graph.json"
    assert main(["build", "--prices", str(prices), "--out", str(out)]) == 0
    stdout, stderr = capsys.readouterr()
    assert "(12 pairs evaluated, 8 skipped)" in stdout
    assert "Traceback" not in stderr
    reason = "OLS residuals or their spread are not finite (prices too large for float64)"
    assert [line for line in stderr.splitlines() if line.startswith("skipped")] == [
        f"skipped 8 pairs with NonFiniteFit, e.g. {series[0].symbol}->{series[1].symbol}: "
        f"NonFiniteFit: {reason}"
    ]
    g = load_graph(out)
    big = g.symbol_ids[series[1].symbol]
    assert big not in g.columns.src and big not in g.columns.dst


def test_a_refit_that_overflows_removes_the_edge():
    series = scaled_universe()
    a, b, c = (p.symbol for p in series[:3])
    results = [PairResult(src, dst, dummy_model(), admitted=True)
               for src, dst in ((b, a), (a, b), (a, c))]
    g = build_graph(results, 1.0, [p.symbol for p in series])
    broken = [e.id for e in g.edges.values() if b in (g.symbol(e.src), g.symbol(e.dst))]
    assert len(broken) == 2
    g2, summary = alert.selective_recompute(g, broken, series, alert.AlertConfig(epsilon=0.05))
    assert sorted(summary.removed) == sorted(broken)
    assert summary.refitted == ()
    assert g2.n_edges == 1
