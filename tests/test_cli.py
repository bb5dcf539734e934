import json
from datetime import date, timedelta

import numpy as np
import pytest

from cointwatch import synth
from cointwatch.cli import main
from cointwatch.coint import PairResult
from cointwatch.graph import build_graph
from cointwatch.pipeline import load_graph, save_graph, write_prices_csv

from conftest import dummy_model, planted_instance


def run(argv):
    return main(argv)


@pytest.fixture()
def universe_csv(tmp_path):
    path = tmp_path / "prices.csv"
    code = run(
        [
            "gen", "universe",
            "--clusters", "1", "--cluster-size", "4", "--independents", "2",
            "--days", "200", "--seed", "5", "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def built_graph(tmp_path, universe_csv):
    path = tmp_path / "graph.json"
    code = run(["build", "--prices", str(universe_csv), "--out", str(path)])
    assert code == 0
    return path


class TestBuild:
    def test_writes_valid_graph(self, built_graph):
        g = load_graph(built_graph)
        assert g.n_nodes == 6
        assert g.n_edges > 0

    def test_alpha_default_is_005(self, tmp_path, universe_csv):
        explicit = tmp_path / "explicit.json"
        run(
            [
                "build", "--prices", str(universe_csv),
                "--alpha", "0.05", "--out", str(explicit),
            ]
        )
        implicit = tmp_path / "implicit.json"
        run(["build", "--prices", str(universe_csv), "--out", str(implicit)])
        assert explicit.read_bytes() == implicit.read_bytes()

    def test_repeat_builds_byte_identical(self, tmp_path, universe_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["build", "--prices", str(universe_csv), "--out", str(a)])
        run(["build", "--prices", str(universe_csv), "--out", str(b), "--workers", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_date_window_flags(self, tmp_path, universe_csv):
        out = tmp_path / "windowed.json"
        code = run(
            [
                "build", "--prices", str(universe_csv),
                "--from", "2015-01-02", "--to", "2015-05-30",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert load_graph(out).n_nodes == 6

    def test_skips_summarised_per_reason(self, tmp_path, capsys):
        # a constant symbol fails as regressor and as response against each
        # of the 4 walkers: two reasons, 4 pairs each, one stderr line each
        rng = np.random.default_rng(3)
        calendar = [date(2020, 1, 1) + timedelta(days=k) for k in range(120)]
        series = {f"W{k}": 100.0 + np.cumsum(rng.standard_normal(120)) for k in range(4)}
        series["K"] = [42.0] * 120
        prices = tmp_path / "prices.csv"
        write_prices_csv(prices, calendar, series)
        capsys.readouterr()
        assert run(["build", "--prices", str(prices), "--out", str(tmp_path / "g.json")]) == 0
        out, err = capsys.readouterr()
        assert "(12 pairs evaluated, 8 skipped)" in out
        assert [line for line in err.splitlines() if line.startswith("skipped")] == [
            "skipped 4 pairs with DegeneratePair, e.g. "
            "W0->K: DegeneratePair: W0->K: residuals have zero spread",
            "skipped 4 pairs with DegenerateRegressor, e.g. "
            "K->W0: DegenerateRegressor: regressor has zero variance",
        ]

    def test_missing_prices_file_is_data_error(self, tmp_path):
        code = run(["build", "--prices", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g")])
        assert code == 2

    def test_usage_error_exit_one(self, capsys):
        assert run(["build"]) == 1  # --prices/--out missing
        assert run(["frobnicate"]) == 1
        assert run([]) == 1

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, universe_csv, capsys, workers):
        out = tmp_path / "g.json"
        argv = ["build", "--prices", str(universe_csv), "--workers", workers, "--out", str(out)]
        assert run(argv) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"date,symbol,close\n2015-01-02,{'A' * 131073},1.0\n")
        out = tmp_path / "g.json"
        assert run(["build", "--prices", str(prices), "--out", str(out)]) == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_reports_one_line_per_tick(self, tmp_path, built_graph, universe_csv):
        ticks = tmp_path / "ticks.csv"
        code = run(
            [
                "gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--count", "4", "--seed", "1", "--out", str(ticks),
            ]
        )
        assert code == 0
        reports = tmp_path / "reports.jsonl"
        code = run(
            [
                "run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--sigma", "3", "--out", str(reports),
            ]
        )
        assert code == 0
        lines = reports.read_text().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [p["epoch"] for p in parsed] == [1, 2, 3, 4]
        assert all(p["broken_edges"] == [] for p in parsed)

    @pytest.mark.parametrize("recompute", ["off", "onbreak"])
    def test_history_may_hold_symbols_the_graph_lacks(self, tmp_path, universe_csv, recompute):
        rows = universe_csv.read_text().splitlines(keepends=True)
        dropped = max(row.split(",")[1] for row in rows[1:])
        reduced = tmp_path / "reduced.csv"
        reduced.write_text("".join(row for row in rows if row.split(",")[1] != dropped))
        graph = tmp_path / "graph.json"
        assert run(["build", "--prices", str(reduced), "--out", str(graph)]) == 0
        ticks = tmp_path / "ticks.csv"
        run(
            [
                "gen", "ticks", "--graph", str(graph), "--prices", str(reduced),
                "--count", "3", "--seed", "1", "--out", str(ticks),
            ]
        )
        reports = tmp_path / "reports.jsonl"
        code = run(
            [
                "run", "--graph", str(graph), "--ticks", str(ticks),
                "--prices", str(universe_csv), "--recompute", recompute,
                "--out", str(reports),
            ]
        )
        assert code == 0
        assert len(reports.read_text().splitlines()) == 3

    def test_onbreak_removes_the_edges_of_a_symbol_that_never_moves(self, tmp_path, capsys):
        # K is constant over the refit window: its broken edge as a source
        # (a constant regressor) is removed, as is the one as a destination
        # (zero residual spread), and the run goes on
        rng = np.random.default_rng(4)
        calendar = [date(2020, 1, 1) + timedelta(days=k) for k in range(122)]
        series = {f"W{k}": 100.0 + np.cumsum(rng.standard_normal(122)) for k in range(2)}
        series["K"] = [42.0] * 122
        prices, ticks = tmp_path / "prices.csv", tmp_path / "ticks.csv"
        write_prices_csv(prices, calendar[:120], {s: v[:120] for s, v in series.items()})
        write_prices_csv(ticks, calendar[120:], {s: v[120:] for s, v in series.items()})
        pairs = [("K", "W0"), ("W0", "K"), ("W0", "W1")]
        results = [PairResult(a, b, dummy_model(), admitted=True) for a, b in pairs]
        graph = tmp_path / "graph.json"
        save_graph(build_graph(results, 1.0, ["K", "W0", "W1"]), graph)
        reports, after = tmp_path / "reports.jsonl", tmp_path / "after.json"
        code = run(
            [
                "run", "--graph", str(graph), "--ticks", str(ticks),
                "--prices", str(prices), "--recompute", "onbreak",
                "--out", str(reports), "--graph-out", str(after),
            ]
        )
        assert code == 0, capsys.readouterr().err
        first = json.loads(reports.read_text().splitlines()[0])
        assert {0, 1} <= {eid for eid, _ in first["broken_edges"]}  # K->W0, W0->K
        assert len(reports.read_text().splitlines()) == 2
        g = load_graph(after)
        assert all("K" not in (g.nodes[e.src].symbol, g.nodes[e.dst].symbol)
                   for e in g.edges.values())

    def test_onbreak_removes_an_edge_whose_refit_window_repeats_one_price(self, tmp_path, capsys):
        # one unchanged baseline tick, replayed with an 8-sigma shock every
        # 25 ticks: once the trailing window is mostly that tick, the
        # residuals' differences vanish, the ADF design of a broken edge is
        # rank-deficient, and the edge is removed instead of aborting the run
        g, base, series = planted_instance(3, n_clusters=2, cluster_size=4, n_days=120)
        symbols = sorted(base)
        calendar = [date(2020, 1, 1) + timedelta(days=k) for k in range(320)]
        prices, ticks = tmp_path / "prices.csv", tmp_path / "ticks.csv"
        write_prices_csv(prices, calendar[:120], {p.symbol: p.values for p in series})
        replay = [synth.shock_tick(g, base, symbols[t // 25 % len(symbols)], sigmas=8.0)[0]
                  if t % 25 == 24 else base for t in range(200)]
        write_prices_csv(ticks, calendar[120:], {s: [tick[s] for tick in replay] for s in symbols})
        graph = tmp_path / "graph.json"
        save_graph(g, graph)
        reports, after = tmp_path / "reports.jsonl", tmp_path / "after.json"
        code = run(
            [
                "run", "--graph", str(graph), "--ticks", str(ticks),
                "--prices", str(prices), "--recompute", "onbreak",
                "--out", str(reports), "--graph-out", str(after),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert len(reports.read_text().splitlines()) == 200
        assert load_graph(after).n_edges < g.n_edges

    def test_shock_scenario_detected(self, tmp_path, built_graph, universe_csv):
        g = load_graph(built_graph)
        symbol = g.nodes[0].symbol
        ticks = tmp_path / "shock.csv"
        expected_file = tmp_path / "expected.json"
        code = run(
            [
                "gen", "shock", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--symbol", symbol, "--sigmas", "6", "--out", str(ticks),
                "--expected", str(expected_file),
            ]
        )
        assert code == 0
        reports = tmp_path / "reports.jsonl"
        out_graph = tmp_path / "after.json"
        code = run(
            [
                "run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--out", str(reports), "--graph-out", str(out_graph),
            ]
        )
        assert code == 0
        report = json.loads(reports.read_text().splitlines()[0])
        broken_ids = [eid for eid, _ in report["broken_edges"]]
        assert broken_ids == json.loads(expected_file.read_text())
        assert broken_ids  # shock actually broke something
        after = load_graph(out_graph)
        assert all(after.edges[eid].broken for eid in broken_ids)

    def test_an_infinite_leash_is_a_usage_error(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        # no deviation exceeds an infinite leash, so even a 6-sigma shock
        # would report nothing broken
        symbol = load_graph(built_graph).nodes[0].symbol
        ticks = tmp_path / "shock.csv"
        code = run(
            [
                "gen", "shock", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--symbol", symbol, "--sigmas", "6", "--out", str(ticks),
            ]
        )
        assert code == 0
        reports = tmp_path / "reports.jsonl"
        code = run(
            [
                "run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--sigma", "inf", "--out", str(reports),
            ]
        )
        assert code == 1
        assert "sigma_k must be a positive finite number, got inf" in capsys.readouterr().err
        assert not reports.exists()

    def test_recompute_off_does_not_read_prices(self, tmp_path, built_graph, universe_csv):
        # only onbreak refits read the price history, so off never opens it
        ticks = tmp_path / "shock.csv"
        symbol = load_graph(built_graph).nodes[0].symbol
        argv = [
            "gen", "shock", "--graph", str(built_graph), "--prices", str(universe_csv),
            "--symbol", symbol, "--out", str(ticks),
        ]
        assert run(argv) == 0
        outs = []
        for prices in ([], ["--prices", str(tmp_path / "nope.csv")]):
            out = tmp_path / f"reports{len(outs)}.jsonl"
            argv = [
                "run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--recompute", "off", *prices, "--out", str(out),
            ]
            assert run(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b'"broken_edges":[]' not in outs[0]

    def test_corrupt_graph_is_data_error(self, tmp_path, universe_csv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epoch": -1}')
        code = run(
            ["run", "--graph", str(bad), "--ticks", str(universe_csv), "--out", str(tmp_path / "r")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda o: o["edges"][0].update(id=2**70), "edges[0].id"),
            (lambda o: o.update(epoch=2**63 - 1), "$.epoch"),
        ],
    )
    def test_integers_a_run_cannot_hold_are_data_errors(
        self, tmp_path, built_graph, universe_csv, capsys, mutate, field
    ):
        # such a graph used to load, then crash the run on tick 1
        obj = json.loads(built_graph.read_text())
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run(
            ["run", "--graph", str(bad), "--ticks", str(universe_csv), "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert field in capsys.readouterr().err


class TestRecompute:
    def test_refits_listed_edges(self, tmp_path, built_graph, universe_csv):
        g = load_graph(built_graph)
        eid = sorted(g.edges)[0]
        out = tmp_path / "refit.json"
        code = run(
            [
                "recompute", "--graph", str(built_graph), "--broken", str(eid),
                "--prices", str(universe_csv), "--out", str(out),
            ]
        )
        assert code == 0
        g2 = load_graph(out)
        # the window is the same healthy fitting data: the edge survives
        assert eid in g2.edges
        assert not g2.edges[eid].broken

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[true]", "expected a JSON list of edge ids"),  # true is not edge id 1
            ("[1,", "invalid JSON input"),
            ("[" + "9" * 5000 + "]", "invalid JSON input"),  # over the int digit limit
        ],
        ids=["bool", "malformed", "long-int"],
    )
    def test_bad_broken_file_is_data_error(
        self, tmp_path, built_graph, universe_csv, capsys, text, message
    ):
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        out = tmp_path / "refit.json"
        code = run(
            [
                "recompute", "--graph", str(built_graph), "--broken-file", str(broken),
                "--prices", str(universe_csv), "--out", str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_counts_a_repeated_id_once(self, tmp_path, built_graph, universe_csv, capsys):
        # the refit fits each listed edge once, and the count is of those
        out = tmp_path / "refit.json"
        code = run(
            [
                "recompute", "--graph", str(built_graph), "--broken", "0,0",
                "--prices", str(universe_csv), "--out", str(out),
            ]
        )
        assert code == 0
        assert "recomputed 1 edges: 1 refitted, 0 removed" in capsys.readouterr().out
        assert out.read_bytes() == built_graph.read_bytes()

    def test_requires_broken_list(self, tmp_path, built_graph, universe_csv):
        code = run(
            [
                "recompute", "--graph", str(built_graph),
                "--prices", str(universe_csv), "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, status, message",
    [
        (["run", "--sigma", "inf", "--ticks"], 1,
         "sigma_k must be a positive finite number, got inf"),
        (["recompute", "--epsilon", "1", "--broken", "0", "--prices"], 1,
         "epsilon must be in (0, 1), got 1.0"),
        (["run", "--recompute", "onbreak", "--ticks"], 2,
         "--recompute onbreak requires --prices"),
        (["recompute", "--prices"], 2, "no broken edges given"),
    ],
    ids=["run", "recompute", "run-onbreak", "recompute-no-ids"],
)
def test_flags_are_checked_before_any_input_is_read(tmp_path, capsys, argv, status, message):
    # no input exists: the bad flag is reported, not the first missing file
    out = tmp_path / "out"
    missing = [str(tmp_path / "missing.csv"), "--graph", str(tmp_path / "missing.json")]
    code = run(argv + missing + ["--out", str(out)])
    assert code == status
    err = capsys.readouterr().err
    assert message in err
    assert "No such file" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "run", "recompute"])
def test_window_start_after_end_is_usage_error(tmp_path, built_graph, universe_csv, capsys,
                                               command):
    out = tmp_path / "out"
    argv = {
        "build": ["build", "--prices", str(universe_csv)],
        "run": ["run", "--graph", str(built_graph), "--ticks", str(universe_csv),
                "--prices", str(universe_csv)],
        "recompute": ["recompute", "--graph", str(built_graph), "--broken", "0",
                      "--prices", str(universe_csv)],
    }[command]
    capsys.readouterr()
    code = run(argv + ["--from", "2024-06-01", "--to", "2024-01-01", "--out", str(out)])
    assert code == 1
    assert "window start 2024-06-01 is after end 2024-01-01" in capsys.readouterr().err
    assert not out.exists()


class TestExport:
    def test_dot_to_stdout(self, built_graph, capsys):
        assert run(["export", "--graph", str(built_graph), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "penwidth=" in out

    def test_json_export_matches_saved_graph(self, tmp_path, built_graph):
        out = tmp_path / "exported.json"
        assert run(["export", "--graph", str(built_graph), "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == built_graph.read_bytes()

    def test_empty_graph_export(self, tmp_path, capsys):
        from cointwatch.graph import build_graph
        from cointwatch.pipeline import save_graph

        empty = tmp_path / "empty.json"
        save_graph(build_graph([], 0.05, []), empty)
        assert run(["export", "--graph", str(empty), "--format", "dot"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_node_without_last_price_is_data_error(self, tmp_path, built_graph, capsys):
        # every field export writes is required: a data error, not a KeyError
        obj = json.loads(built_graph.read_text())
        del obj["nodes"][0]["last_price"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run(["export", "--graph", str(bad), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "cointwatch: error: nodes[0].last_price: missing field\n"
        assert captured.out == ""


class TestGen:
    def test_universe_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["gen", "universe", "--seed", "7", "--days", "50", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_shock_requires_symbol(self, tmp_path, built_graph, universe_csv):
        code = run(
            [
                "gen", "shock", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1

    def test_gen_ticks_requires_graph(self, tmp_path):
        assert run(["gen", "ticks", "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_ticks_count_below_one_is_usage_error(
        self, tmp_path, built_graph, universe_csv, capsys, count
    ):
        out = tmp_path / "t.csv"
        argv = [
            "gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
            "--count", count, "--out", str(out),
        ]
        assert run(argv) == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_turbulent_covers_fraction(self, tmp_path):
        prices = tmp_path / "p.csv"
        run(
            [
                "gen", "universe", "--clusters", "3", "--cluster-size", "4",
                "--independents", "0", "--days", "200", "--seed", "3", "--out", str(prices),
            ]
        )
        gpath = tmp_path / "g.json"
        run(["build", "--prices", str(prices), "--out", str(gpath)])
        ticks = tmp_path / "turb.csv"
        expected_file = tmp_path / "exp.json"
        code = run(
            [
                "gen", "turbulent", "--graph", str(gpath), "--prices", str(prices),
                "--fraction", "0.2", "--seed", "4", "--out", str(ticks),
                "--expected", str(expected_file),
            ]
        )
        assert code == 0
        expected = json.loads(expected_file.read_text())
        g = load_graph(gpath)
        assert len(expected) >= 0.2 * g.n_edges

    def test_turbulent_that_cannot_cover_the_fraction_is_data_error(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        # no independent node set covers every edge of a planted cluster
        out = tmp_path / "t.csv"
        argv = [
            "gen", "turbulent", "--graph", str(built_graph), "--prices", str(universe_csv),
            "--fraction", "1", "--out", str(out),
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cointwatch: error: could not cover 100% of edges")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "models, message",
        [
            # the two directions of one pair disagree by 100 price units
            ([("A", "B", 0.0), ("B", "A", 100.0)], "is too inconsistent for scenario generation"),
            # B must sit 1000 below A, and both are anchored near 10
            ([("A", "B", -1000.0)], "baseline tick produced a non-positive price"),
        ],
    )
    def test_baseline_that_cannot_be_built_is_data_error(self, tmp_path, capsys, models, message):
        results = [
            PairResult(src, dst, dummy_model(resid_std=0.1, beta0=beta0), admitted=True)
            for src, dst, beta0 in models
        ]
        graph = tmp_path / "g.json"
        save_graph(build_graph(results, 1.0, ["A", "B"]), graph)
        prices = tmp_path / "p.csv"
        days = [date(2015, 1, 2), date(2015, 1, 3)]
        write_prices_csv(prices, days, {"A": [10.0, 10.0], "B": [10.0, 10.0]})
        out = tmp_path / "t.csv"
        argv = ["gen", "ticks", "--graph", str(graph), "--prices", str(prices), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cointwatch: error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "symbols, pairs, kind, message",
        [
            (["A", "B"], [], "turbulent", "graph has no edges to break"),
            (["A", "B", "C"], [("A", "B")], "shock", "symbol 'C' has no incident edges to shock"),
            ([], [], "ticks", "graph has no nodes to price"),
            ([], [], "shock", "graph has no nodes to price"),
            ([], [], "turbulent", "graph has no nodes to price"),
        ],
    )
    def test_a_graph_the_scenario_cannot_use_is_a_data_error(
        self, tmp_path, capsys, symbols, pairs, kind, message
    ):
        results = [PairResult(src, dst, dummy_model(), admitted=True) for src, dst in pairs]
        graph = tmp_path / "g.json"
        save_graph(build_graph(results, 1.0, symbols), graph)
        prices = tmp_path / "p.csv"
        days = [date(2015, 1, 2), date(2015, 1, 3)]
        write_prices_csv(prices, days, {s: [10.0, 10.0] for s in ("A", "B", "C")})
        out, expected = tmp_path / "t.csv", tmp_path / "expected.json"
        argv = [
            "gen", kind, "--graph", str(graph), "--prices", str(prices), "--symbol", "C",
            "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cointwatch: error: {message}\n"
        assert captured.out == ""
        assert not out.exists() and not expected.exists()

    @pytest.mark.parametrize("kind", ["universe", "ticks", "turbulent"])
    def test_negative_seed_is_a_usage_error(
        self, tmp_path, built_graph, universe_csv, capsys, kind
    ):
        out, expected = tmp_path / "t.csv", tmp_path / "expected.json"
        argv = [
            "gen", kind, "--graph", str(built_graph), "--prices", str(universe_csv),
            "--seed", "-1", "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err and captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists() and not expected.exists()

    @pytest.mark.parametrize("kind", ["ticks", "shock", "turbulent"])
    @pytest.mark.parametrize("cause", ["no rows", "no first day", "long gap"])
    def test_prices_without_a_graph_symbol_are_a_data_error(
        self, tmp_path, built_graph, universe_csv, capsys, kind, cause
    ):
        # C0S00 has no series in the window: no rows at all, or the window
        # excludes it (no observation at its start, a gap over 3 days)
        header, *rows = universe_csv.read_text().splitlines()
        own = [k for k, row in enumerate(rows) if row.split(",")[1] == "C0S00"]
        dropped = {"no rows": own, "no first day": own[:1], "long gap": own[10:15]}[cause]
        prices = tmp_path / "prices.csv"
        kept = [row for k, row in enumerate(rows) if k not in set(dropped)]
        prices.write_text("\n".join([header, *kept]) + "\n")
        out, expected = tmp_path / "t.csv", tmp_path / "expected.json"
        argv = [
            "gen", kind, "--graph", str(built_graph), "--prices", str(prices),
            "--symbol", "C0S01", "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "cointwatch: error: no fallback price for graph symbol 'C0S00'\n"
        assert captured.out == ""
        assert not out.exists() and not expected.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--clusters", "-1"], "--clusters"),
            (["--cluster-size", "-2"], "--cluster-size"),
            (["--independents", "-1"], "--independents"),
            (["--days", "0"], "--days"),
            (["--days", "-5"], "--days"),
            (["--clusters", "0", "--independents", "0"], "--independents"),
            (["--cluster-size", "0", "--independents", "0"], "--cluster-size"),
        ],
    )
    def test_universe_it_cannot_build_is_a_usage_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "u.csv"
        assert run(["gen", "universe", *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert named in captured.err and captured.err.count("error:") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("shock", "--sigmas", "-6"),
            ("shock", "--sigmas", "0"),
            ("shock", "--sigmas", "nan"),
            ("shock", "--sigmas", "inf"),
            ("turbulent", "--sigmas", "-3"),
            ("turbulent", "--fraction", "0"),
            ("turbulent", "--fraction", "-0.25"),
            ("turbulent", "--fraction", "1.5"),
            ("turbulent", "--fraction", "nan"),
        ],
    )
    def test_sigmas_and_fraction_out_of_range_are_usage_errors(
        self, tmp_path, built_graph, universe_csv, capsys, kind, flag, value
    ):
        # such a scenario would be written with an --expected set the run contradicts
        out, expected = tmp_path / "t.csv", tmp_path / "expected.json"
        argv = [
            "gen", kind, "--graph", str(built_graph), "--prices", str(universe_csv),
            "--symbol", "C0S00", flag, value, "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists() and not expected.exists()

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("universe", "--sigmas", "0"),
            ("universe", "--fraction", "2"),
            ("ticks", "--sigmas", "-1"),
            ("ticks", "--fraction", "2"),
            ("shock", "--fraction", "0"),
        ],
    )
    def test_flags_a_kind_does_not_read_are_not_checked(
        self, tmp_path, built_graph, universe_csv, kind, flag, value
    ):
        # --sigmas is read by shock and turbulent only, --fraction by turbulent
        if kind == "universe":
            args = ["--days", "50"]
        else:
            args = ["--graph", str(built_graph), "--prices", str(universe_csv), "--symbol", "C0S00"]
        outs = []
        for extra in ([], [flag, value]):
            out = tmp_path / f"out{len(outs)}.csv"
            assert run(["gen", kind, *args, *extra, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
