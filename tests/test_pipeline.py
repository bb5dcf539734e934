import json
import sys
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointwatch import pipeline, synth
from cointwatch.alert import RECOMPUTE_OFF, RECOMPUTE_ON_BREAK, AlertConfig, tick_loop
from cointwatch.errors import EmptyInput, EmptyWindow, ParseError, SchemaViolation
from cointwatch.graph import MAX_EPOCH, export, update_prices
from cointwatch.pipeline import (
    load_graph,
    load_prices,
    load_ticks,
    loads_graph,
    save_graph,
    slice_window,
)

from conftest import planted_instance, random_graph


def write_csv(path, rows, header="date,symbol,close"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestLoadPrices:
    def test_three_rows_one_symbol(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, ["2015-01-02,IBM,100.5", "2015-01-03,IBM,101.0", "2015-01-04,IBM,99.75"])
        table = load_prices(f)
        assert table.symbols == ("IBM",)
        assert len(table.calendar) == 3
        assert table.prices.shape == (3, 1)
        assert table.prices[0, 0] == 100.5

    def test_non_numeric_close_names_line(self, tmp_path):
        f = tmp_path / "p.csv"
        rows = [f"2015-01-{d:02d},IBM,100.0" for d in range(2, 7)]
        rows.append("2015-01-07,IBM,oops")  # physical line 7 (header is line 1)
        write_csv(f, rows)
        with pytest.raises(ParseError, match="line 7") as err:
            load_prices(f)
        assert err.value.line == 7

    def test_bad_date_names_line(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, ["01/02/2015,IBM,100.0"])
        with pytest.raises(ParseError, match="line 2"):
            load_prices(f)

    def test_negative_close_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, ["2015-01-02,IBM,-5.0"])
        with pytest.raises(ParseError, match="positive"):
            load_prices(f)

    def test_duplicate_row_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        write_csv(f, ["2015-01-02,IBM,100.0", "2015-01-02,IBM,100.5"])
        with pytest.raises(ParseError, match="duplicate"):
            load_prices(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("")
        with pytest.raises(EmptyInput):
            load_prices(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,symbol,close\n")
        with pytest.raises(EmptyInput):
            load_prices(f)

    def test_wrong_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("time,ticker,price\n2015-01-02,IBM,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_prices(f)

    def test_sparse_symbol_excluded_in_window(self, tmp_path):
        f = tmp_path / "p.csv"
        days = [date(2015, 1, d) for d in range(1, 21)]
        rows = [f"{d.isoformat()},FULL,100.0" for d in days]
        rows += [f"{d.isoformat()},GAPPY,50.0" for d in days[:10]]  # 50% missing
        write_csv(f, rows)
        table = load_prices(f, start=days[0], end=days[-1])
        assert table.symbols == ("FULL",)
        assert table.excluded[0][0] == "GAPPY"
        assert "missing" in table.excluded[0][1]
        # conservation: input rows == cells in the table + rows dropped
        # with the excluded symbol
        assert len(rows) == int(np.sum(~np.isnan(table.prices))) + 10

    def test_no_window_keeps_sparse_symbol(self, tmp_path):
        f = tmp_path / "p.csv"
        days = [date(2015, 1, d) for d in range(1, 21)]
        rows = [f"{d.isoformat()},FULL,100.0" for d in days]
        rows += [f"{d.isoformat()},GAPPY,50.0" for d in days[:10]]
        write_csv(f, rows)
        table = load_prices(f)
        assert table.symbols == ("FULL", "GAPPY")


class TestSliceWindow:
    def make_table(self, n_days=10, symbols=("A", "B")):
        days = tuple(date(2015, 1, d + 1) for d in range(n_days))
        prices = np.full((n_days, len(symbols)), 100.0) + np.arange(n_days)[:, None]
        return pipeline.PriceTable(calendar=days, symbols=tuple(symbols), prices=prices)

    def test_full_range(self):
        table = self.make_table()
        window = slice_window(table, table.calendar[0], table.calendar[-1])
        assert all(len(s) == len(table.calendar) for s in window.series)
        assert window.window_id == "2015-01-01:2015-01-10"

    def test_single_day(self):
        table = self.make_table()
        window = slice_window(table, table.calendar[3], table.calendar[3])
        assert all(len(s) == 1 for s in window.series)

    def test_forward_fill_short_gap(self):
        table = self.make_table()
        prices = table.prices.copy()
        prices[4, 0] = np.nan
        prices[5, 0] = np.nan
        table = pipeline.PriceTable(table.calendar, table.symbols, prices)
        window = slice_window(table, table.calendar[0], table.calendar[-1])
        a = next(s for s in window.series if s.symbol == "A")
        assert a.values[4] == a.values[3] == a.values[5]
        assert ("A", 2) in window.filled

    def test_long_gap_excludes_symbol(self):
        table = self.make_table()
        prices = table.prices.copy()
        prices[2:7, 0] = np.nan  # 5-day gap > default limit 3
        table = pipeline.PriceTable(table.calendar, table.symbols, prices)
        window = slice_window(table, table.calendar[0], table.calendar[-1])
        assert [s.symbol for s in window.series] == ["B"]
        assert window.excluded[0] == ("A", "gap longer than 3 days")

    def test_leading_missing_excludes_symbol(self):
        table = self.make_table()
        prices = table.prices.copy()
        prices[0, 1] = np.nan
        table = pipeline.PriceTable(table.calendar, table.symbols, prices)
        window = slice_window(table, table.calendar[0], table.calendar[-1])
        assert [s.symbol for s in window.series] == ["A"]

    def test_empty_window(self):
        table = self.make_table()
        with pytest.raises(EmptyWindow):
            slice_window(table, date(2020, 1, 1), date(2020, 2, 1))
        with pytest.raises(EmptyWindow):
            slice_window(table, table.calendar[-1], table.calendar[0])


class TestLoadTicks:
    def test_grouped_by_date(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(
            f,
            [
                "2016-01-20,AAA,10.0",
                "2016-01-20,BBB,20.0",
                "2016-01-21,AAA,11.0",
            ],
        )
        ticks = load_ticks(f)
        assert ticks[0] == (date(2016, 1, 20), {"AAA": 10.0, "BBB": 20.0})
        assert ticks[1] == (date(2016, 1, 21), {"AAA": 11.0})


class TestGraphPersistence:
    def test_empty_graph_roundtrip(self, tmp_path):
        from cointwatch.graph import build_graph

        g = build_graph([], 0.05, [])
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_seeded_graph_second_save_byte_identical(self, tmp_path):
        g = update_prices(random_graph(0, n_nodes=64, n_edges=200), {"S00": 55.5})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 30),
        shocks=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 8.0)), min_size=1, max_size=4),
        latch=st.booleans(),
        recompute=st.sampled_from([RECOMPUTE_OFF, RECOMPUTE_ON_BREAK]),
    )
    def test_written_graphs_save_load_save_byte_stable(self, seed, shocks, latch, recompute):
        # every graph version a run publishes: prices, alert histories,
        # broken flags, refits and removals all survive the loader's checks
        g, base, series = planted_instance(seed, n_clusters=2, cluster_size=3)
        symbols = sorted(base)
        ticks = [synth.shock_tick(g, base, symbols[k], sigmas=sigmas)[0] for k, sigmas in shocks]
        stream = tick_loop(
            g, ticks, AlertConfig(latch_alerts=latch), recompute_policy=recompute,
            history=series if recompute == RECOMPUTE_ON_BREAK else None,
        )
        graphs = [g]
        for _ in stream:
            graphs.append(stream.graph)
        for version in graphs:
            data = export(version, "json")
            assert export(loads_graph(data), "json") == data

    def test_corrupt_pvalue_names_field_path(self, tmp_path):
        g = random_graph(1, n_nodes=4, n_edges=3)
        obj = json.loads(export(g, "json"))
        obj["edges"][0]["model"]["pvalue"] = 1.5
        with pytest.raises(SchemaViolation, match=r"edges\[0\].model.pvalue") as err:
            loads_graph(json.dumps(obj))
        assert err.value.path == "edges[0].model.pvalue"

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda o: o["nodes"][1].update(last_price=-3.0), "nodes[1].last_price"),
            (lambda o: o["nodes"][0].update(alert_state="panic"), "nodes[0].alert_state"),
            (lambda o: o["edges"][0].update(src=99), "edges[0].src"),
            (lambda o: o["edges"][0]["model"].update(resid_std=0.0), "edges[0].model.resid_std"),
            (lambda o: o["edges"][0].pop("broken"), "edges[0].broken"),
            (
                lambda o: o["nodes"][0].update(alert_history=[[3, "clear"], [3, "clear"]]),
                "nodes[0].alert_history[1]",
            ),
            # the graph is at epoch 0: nothing may be stamped later than that
            (lambda o: o["nodes"][2].update(last_update_epoch=1), "nodes[2].last_update_epoch"),
            (
                lambda o: o["nodes"][1].update(alert_history=[[0, "clear"], [1, "alerted"]]),
                "nodes[1].alert_history[1]",
            ),
            # integers the program cannot hold: a 401-digit number is beyond
            # float range, edge ids are int64, and a run must be able to
            # advance the epoch within int64
            pytest.param(
                lambda o: o["edges"][0]["model"].update(beta0=10**400),
                "edges[0].model.beta0",
                id="beta0-401-digits",
            ),
            pytest.param(
                lambda o: o["edges"][0]["model"].update(resid_std=10**400),
                "edges[0].model.resid_std",
                id="resid_std-401-digits",
            ),
            pytest.param(
                lambda o: o["nodes"][0].update(last_price=10**400),
                "nodes[0].last_price",
                id="last_price-401-digits",
            ),
            pytest.param(
                lambda o: o["edges"][0].update(id=2**70), "edges[0].id", id="edge-id-2**70"
            ),
            pytest.param(
                lambda o: o["edges"][0].update(id=-(2**63) - 1),
                "edges[0].id",
                id="edge-id-below-int64",
            ),
            pytest.param(lambda o: o.update(epoch=2**63 - 1), "$.epoch", id="epoch-int64-max"),
            pytest.param(lambda o: o.update(epoch=2**70), "$.epoch", id="epoch-2**70"),
            pytest.param(
                lambda o: o["nodes"][0].update(last_update_epoch=-(2**70)),
                "nodes[0].last_update_epoch",
                id="last_update_epoch--2**70",
            ),
        ],
    )
    def test_violations_name_their_field(self, tmp_path, mutate, path):
        g = random_graph(2, n_nodes=4, n_edges=3)
        obj = json.loads(export(g, "json"))
        mutate(obj)
        with pytest.raises(SchemaViolation) as err:
            loads_graph(json.dumps(obj))
        assert err.value.path == path

    def test_bounds_are_inclusive(self):
        g = random_graph(2, n_nodes=4, n_edges=3)
        obj = json.loads(export(g, "json"))
        obj["epoch"] = MAX_EPOCH
        obj["edges"][0]["id"] = 2**63 - 1
        obj["edges"][1]["id"] = -(2**63)
        obj["edges"].sort(key=lambda e: e["id"])
        data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        g = loads_graph(data)
        assert export(g, "json") == data
        # a run can advance the largest epoch
        stream = tick_loop(g, [{"S00": 10.0, "S01": 20.0}] * 2, AlertConfig())
        assert [report.epoch for report in stream] == [MAX_EPOCH + 1, MAX_EPOCH + 2]

    def test_integer_model_numbers_reexport_as_floats(self):
        # the edge columns hold float64, so a model number written as a JSON
        # integer (the program never writes one) comes back as a float
        g = random_graph(2, n_nodes=4, n_edges=3)
        obj = json.loads(export(g, "json"))
        model = obj["edges"][0]["model"]
        model.update(beta0=1, beta1=-2, resid_mean=0, resid_std=3, pvalue=0, adf_stat=-4)
        text = export(loads_graph(json.dumps(obj)), "json").decode()
        assert (
            '"model":{"adf_stat":-4.0,"beta0":1.0,"beta1":-2.0,"pvalue":0.0,'
            '"resid_mean":0.0,"resid_std":3.0,' in text
        )

    def test_duplicate_edge_pair_rejected(self):
        g = random_graph(3, n_nodes=4, n_edges=3)
        obj = json.loads(export(g, "json"))
        clone = dict(obj["edges"][0])
        clone["id"] = 999
        obj["edges"].append(clone)
        with pytest.raises(SchemaViolation):
            loads_graph(json.dumps(obj))

    def test_not_json(self):
        with pytest.raises(SchemaViolation):
            loads_graph(b"...garbage...")

    def test_integer_too_long_to_parse_is_a_schema_violation(self):
        # json.loads refuses integers longer than sys.get_int_max_str_digits(),
        # where Python has that limit; past it, the epoch bound rejects this
        data = export(random_graph(2, n_nodes=4, n_edges=3), "json")
        data = data.replace(b'"epoch":0', b'"epoch":' + b"9" * 5000)
        with pytest.raises(SchemaViolation) as err:
            loads_graph(data)
        assert err.value.path == ("$" if hasattr(sys, "get_int_max_str_digits") else "$.epoch")

    def test_node_without_last_price_is_a_schema_violation(self):
        # every field export writes is required; an unpriced node writes null
        obj = json.loads(export(random_graph(2, n_nodes=4, n_edges=3), "json"))
        del obj["nodes"][2]["last_price"]
        with pytest.raises(SchemaViolation) as err:
            loads_graph(json.dumps(obj))
        assert (err.value.path, str(err.value)) == (
            "nodes[2].last_price", "nodes[2].last_price: missing field"
        )

    @pytest.mark.parametrize("history", [[[True, "clear"]], [[0, "clear"], [False, "alerted"]]])
    def test_bool_alert_history_epoch_is_a_schema_violation(self, history):
        # a bool is no epoch: [true, "clear"] would re-export as [1, "clear"]
        obj = json.loads(export(random_graph(2, n_nodes=4, n_edges=3), "json"))
        obj["epoch"] = 5
        obj["nodes"][1]["alert_history"] = history
        with pytest.raises(SchemaViolation) as err:
            loads_graph(json.dumps(obj))
        path = f"nodes[1].alert_history[{len(history) - 1}]"
        assert (err.value.path, str(err.value)) == (path, f"{path}: expected [epoch, state]")


class TestGeneratorRoundTrip:
    def test_universe_survives_csv_and_slice(self, tmp_path):
        universe = synth.planted_universe(
            n_clusters=1, cluster_size=3, n_independent=2, n_days=60, seed=9
        )
        table = universe.table
        f = tmp_path / "u.csv"
        columns = {s: table.prices[:, j] for j, s in enumerate(table.symbols)}
        pipeline.write_prices_csv(f, table.calendar, columns)
        loaded = load_prices(f)
        assert loaded.calendar == table.calendar
        assert loaded.symbols == table.symbols
        assert np.array_equal(loaded.prices, table.prices)
        window = slice_window(loaded, table.calendar[0], table.calendar[-1])
        for s in window.series:
            assert np.array_equal(s.values, columns[s.symbol])
