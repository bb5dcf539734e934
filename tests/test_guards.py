"""Guards that no other test reaches: each test pins what the guard does
today, so a refactor that drops or changes one is seen."""

import numpy as np
import pytest

from cointwatch.alert import AlertConfig, AlertReport, TickStream, global_reduce
from cointwatch.cli import main
from cointwatch.coint import PriceSeries, scan_pairs
from cointwatch.errors import NonPositivePrice, UnknownSymbol
from cointwatch.graph import build_graph, tick_prices

from conftest import random_graph


def test_only_the_newest_version_takes_the_next_tick():
    nodes = random_graph(1).node_source.branch()
    ids, flags = np.array([0, 1]), np.array([False, True])
    newer = nodes.evaluated(1, ids, flags)
    with pytest.raises(RuntimeError, match="only the newest version of a run"):
        nodes.evaluated(2, ids, flags)
    assert newer.evaluated(2, ids, flags).length == 2


def test_node_id_of_an_unknown_symbol():
    g = random_graph(1)
    assert g.node_id("S03") == 3
    with pytest.raises(UnknownSymbol, match="symbol 'NOPE' is not in the graph"):
        g.node_id("NOPE")


class Price(float):
    pass


class Count(int):
    pass


def test_prices_of_float_and_int_subclasses_are_checked_one_by_one():
    symbol_ids = random_graph(1).symbol_ids
    ids, prices = tick_prices(symbol_ids, {"S03": Price(2.5), "S01": Count(4)})
    assert ids.dtype == np.intp and ids.tolist() == [3, 1]
    assert prices.dtype == np.float64 and prices.tolist() == [2.5, 4.0]
    plain_ids, plain_prices = tick_prices(symbol_ids, {"S03": 2.5, "S01": 4})
    assert np.array_equal(ids, plain_ids) and np.array_equal(prices, plain_prices)
    with pytest.raises(NonPositivePrice, match=r"S01: price -4 is not a positive finite number"):
        tick_prices(symbol_ids, {"S03": Price(2.5), "S01": Count(-4)})


@pytest.mark.parametrize("fraction", [0.0, 0.2])
def test_a_graph_without_nodes_is_never_in_global_alert(fraction):
    g = build_graph([], 0.05, [])
    report = AlertReport(1, (), (), False, 0, 0)
    assert global_reduce(g, report, AlertConfig(global_fraction=fraction)) is False


def test_tick_stream_rejects_an_unknown_recompute_policy():
    with pytest.raises(ValueError, match="unknown recompute policy 'sometimes'"):
        TickStream(random_graph(1), [], AlertConfig(), recompute_policy="sometimes")


def test_scan_pairs_rejects_an_unknown_direction_policy():
    rng = np.random.default_rng(0)
    universe = [PriceSeries(s, 100.0 + rng.random(40).cumsum(), "w") for s in "AB"]
    with pytest.raises(ValueError, match="unknown direction policy 'sideways'"):
        scan_pairs(universe, direction_policy="sideways")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--prices", "p.csv", "--from", "2020-13-01"],
         "argument --from: '2020-13-01' is not an ISO-8601 date"),
        (["gen", "universe", "--seed", "x"], "argument --seed: 'x' is not an integer"),
        (["recompute", "--graph", "g.json", "--prices", "p.csv", "--broken", "1,x"],
         "argument --broken: '1,x' is not a comma-separated id list"),
    ],
    ids=["date", "integer", "id-list"],
)
def test_flag_values_argparse_cannot_convert_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_names_each_excluded_symbol(tmp_path, capsys):
    prices, graph = tmp_path / "prices.csv", tmp_path / "graph.json"
    argv = ["gen", "universe", "--clusters", "1", "--cluster-size", "3", "--independents", "1",
            "--days", "60", "--seed", "2", "--out", str(prices)]
    assert main(argv) == 0
    header, first, *rows = prices.read_text().splitlines(keepends=True)
    # the first row is the first date's first symbol, which then has no
    # observation at the window start
    symbol = first.split(",")[1]
    prices.write_text(header + "".join(rows), newline="")
    capsys.readouterr()
    assert main(["build", "--prices", str(prices), "--out", str(graph)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"excluded {symbol}: no observation at window start"]
    assert "built graph: 3 nodes" in captured.out
