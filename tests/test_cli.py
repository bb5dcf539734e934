import errno
import json
import os
import threading
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from cointwatch import pipeline, synth
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

    @pytest.mark.parametrize(
        "flag, message",
        [(["--alpha", "2"], "epsilon must be in [0, 1), got 2.0"),
         (["--lags", "-3"], "lags must be >= 0, got -3")],
        ids=["alpha", "lags"],
    )
    def test_flags_are_checked_before_the_prices_are_read(self, tmp_path, capsys, flag, message):
        out = tmp_path / "g.json"
        argv = ["build", "--prices", str(tmp_path / "missing.csv"), *flag, "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "No such file" not in err
        assert not out.exists()

    def test_negative_lags_are_a_usage_error_whatever_the_window(self, tmp_path, capsys):
        # on one day every pair is too short before a lag is looked at
        prices = tmp_path / "prices.csv"
        prices.write_text("date,symbol,close\n2015-01-02,A,1.0\n2015-01-02,B,2.0\n")
        out = tmp_path / "g.json"
        assert run(["build", "--prices", str(prices), "--lags", "-3", "--out", str(out)]) == 1
        assert "lags must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


def _ticks_with_unknown_symbol(tmp_path, built_graph, universe_csv, day):
    """Four gen ticks with one symbol renamed to one the graph lacks on the
    day-th date (1-based)."""
    ticks = tmp_path / "ticks.csv"
    argv = ["gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
            "--count", "4", "--seed", "1", "--out", str(ticks)]
    assert run(argv) == 0
    header, *rows = ticks.read_text().splitlines(keepends=True)
    dates = sorted({r.split(",")[0] for r in rows})
    target = next(i for i, r in enumerate(rows) if r.startswith(dates[day - 1] + ","))
    d, _, close = rows[target].split(",")
    rows[target] = f"{d},NOPE,{close}"
    bad = tmp_path / f"bad-{day}.csv"
    bad.write_text(header + "".join(rows), newline="")
    return bad


class TestFailedRunLeavesNoOutput:
    @pytest.mark.parametrize("day", [1, 3])
    def test_no_new_reports_or_graph(self, tmp_path, built_graph, universe_csv, capsys, day):
        ticks = _ticks_with_unknown_symbol(tmp_path, built_graph, universe_csv, day)
        out, graph_out = tmp_path / "reports.jsonl", tmp_path / "after.json"
        before = sorted(tmp_path.iterdir())
        argv = ["run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--out", str(out), "--graph-out", str(graph_out)]
        assert run(argv) == 2
        assert f"tick for epoch {day} failed" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before  # no temporary file left either

    def test_existing_outputs_are_kept(self, tmp_path, built_graph, universe_csv):
        ticks = _ticks_with_unknown_symbol(tmp_path, built_graph, universe_csv, 3)
        out, graph_out = tmp_path / "reports.jsonl", tmp_path / "after.json"
        out.write_bytes(b"earlier reports\n")
        graph_out.write_bytes(b"earlier graph\n")
        argv = ["run", "--graph", str(built_graph), "--ticks", str(ticks),
                "--out", str(out), "--graph-out", str(graph_out)]
        assert run(argv) == 2
        assert out.read_bytes() == b"earlier reports\n"
        assert graph_out.read_bytes() == b"earlier graph\n"

    def test_a_run_that_succeeds_replaces_them(self, tmp_path, built_graph, universe_csv):
        ticks = tmp_path / "ticks.csv"
        argv = ["gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--count", "3", "--seed", "1", "--out", str(ticks)]
        assert run(argv) == 0
        fresh, old = tmp_path / "fresh.jsonl", tmp_path / "old.jsonl"
        old.write_bytes(b"x" * 100_000)
        for out in (fresh, old):
            assert run(["run", "--graph", str(built_graph), "--ticks", str(ticks),
                        "--out", str(out)]) == 0
        assert old.read_bytes() == fresh.read_bytes()
        assert len(fresh.read_text().splitlines()) == 3
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []

    def test_an_unwritable_output_is_named_as_given(self, tmp_path, built_graph, universe_csv,
                                                    capsys):
        ticks = tmp_path / "ticks.csv"
        argv = ["gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--count", "2", "--seed", "1", "--out", str(ticks)]
        assert run(argv) == 0
        capsys.readouterr()
        out, missing = tmp_path / "reports.jsonl", tmp_path / "no-dir" / "after.json"
        for flags in (["--out", str(missing)], ["--out", str(out), "--graph-out", str(missing)]):
            assert run(["run", "--graph", str(built_graph), "--ticks", str(ticks), *flags]) == 2
            err = capsys.readouterr().err
            assert f"No such file or directory: {str(missing)!r}" in err
            assert not out.exists()

    def test_a_symlink_or_a_pipe_is_written_through(self, tmp_path, built_graph, universe_csv):
        ticks = tmp_path / "ticks.csv"
        argv = ["gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--count", "2", "--seed", "1", "--out", str(ticks)]
        assert run(argv) == 0
        plain, target, link = tmp_path / "plain.jsonl", tmp_path / "target.jsonl", tmp_path / "link"
        link.symlink_to(target)
        for out in (plain, link):
            assert run(["run", "--graph", str(built_graph), "--ticks", str(ticks),
                        "--out", str(out)]) == 0
        assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
        if not hasattr(os, "mkfifo"):
            return
        # a pipe (as /dev/stdout may be) is written, not replaced by a file
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(["run", "--graph", str(built_graph), "--ticks", str(ticks),
                    "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert fifo.is_fifo()
        assert got == [plain.read_bytes()]


def _part_then_disk_full(path, data: bytes):
    """Write the first bytes of data to path, then fail as a full disk does."""
    with open(path, "wb") as fh:
        fh.write(data[:8])
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestFailedCommandLeavesNoOutput:
    """Every command writes its files through one staged writer: a writer
    that fails after writing part of a file leaves no new output, and an
    existing output byte for byte."""

    @pytest.fixture()
    def failing_writers(self, monkeypatch):
        def save_graph(g, path):
            _part_then_disk_full(path, b'{"edges":[')

        def write_prices_csv(path, calendar, series):
            _part_then_disk_full(path, b"date,symbol,close\r\n")

        def write_bytes(self, data):
            _part_then_disk_full(self, data)

        monkeypatch.setattr(pipeline, "save_graph", save_graph)
        monkeypatch.setattr(pipeline, "write_prices_csv", write_prices_csv)
        monkeypatch.setattr(Path, "write_bytes", write_bytes)

    @staticmethod
    def argv(command, out, built_graph, universe_csv):
        inputs = ["--graph", str(built_graph), "--prices", str(universe_csv)]
        return {
            "build": ["build", "--prices", str(universe_csv)],
            "recompute": ["recompute", *inputs, "--broken", "0"],
            "export": ["export", "--graph", str(built_graph), "--format", "json"],
            "gen-universe": ["gen", "universe", "--days", "20"],
            "gen-ticks": ["gen", "ticks", *inputs, "--count", "2"],
            "gen-shock": ["gen", "shock", *inputs, "--symbol", "C0S00",
                          "--expected", str(out.with_suffix(".expected"))],
        }[command] + ["--out", str(out)]

    COMMANDS = ["build", "recompute", "export", "gen-universe", "gen-ticks", "gen-shock"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_failed_write_leaves_the_outputs_as_they_were(
        self, tmp_path, built_graph, universe_csv, capsys, failing_writers, command, existing
    ):
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        expected = out.with_suffix(".expected")
        if existing:  # Path.write_bytes is the failing writer here
            out.write_text("earlier output\n")
            expected.write_text("earlier expected\n")
        before = {p.name: p.read_bytes() for p in out.parent.iterdir()}
        assert run(self.argv(command, out, built_graph, universe_csv)) == 2
        err = capsys.readouterr().err
        assert f"No space left on device: {str(out)!r}" in err
        # no temporary file is left either
        assert {p.name: p.read_bytes() for p in out.parent.iterdir()} == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_that_succeeds_replaces_them(self, tmp_path, built_graph, universe_csv,
                                                   command):
        fresh, old = tmp_path / "fresh" / "result", tmp_path / "old" / "result"
        for out in (fresh, old):
            out.parent.mkdir()
        old.write_bytes(b"x" * 100_000)
        if command == "gen-shock":
            old.with_suffix(".expected").write_bytes(b"x" * 100_000)
        for out in (fresh, old):
            assert run(self.argv(command, out, built_graph, universe_csv)) == 0
        written = {p.name: p.read_bytes() for p in fresh.parent.iterdir()}
        assert {p.name: p.read_bytes() for p in old.parent.iterdir()} == written


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

    @pytest.mark.parametrize("ticks", ["universe", "missing"])
    @pytest.mark.parametrize("to", ["2015-01-03", "2015-01-05"])
    def test_onbreak_refuses_a_window_too_short_to_refit_before_any_tick(
        self, tmp_path, built_graph, universe_csv, capsys, ticks, to
    ):
        # the universe replayed as ticks breaks edges from tick 21 on; a
        # window of 1 or 3 dates cannot refit them (the ADF lag rule needs
        # 4), so the run is refused before its tick file is read
        out = tmp_path / "reports.jsonl"
        tick_file = universe_csv if ticks == "universe" else tmp_path / "absent.csv"
        capsys.readouterr()
        code = run(
            [
                "run", "--graph", str(built_graph), "--ticks", str(tick_file),
                "--recompute", "onbreak", "--prices", str(universe_csv),
                "--from", "2015-01-03", "--to", to, "--out", str(out),
            ]
        )
        n = 1 if to == "2015-01-03" else 3
        assert code == 2
        assert capsys.readouterr() == (
            "",
            f"cointwatch: error: refit window 2015-01-03:{to} of {universe_csv} is too short "
            f"to fit a pair on: need at least 4 samples to pick a lag order, got {n}\n",
        )
        assert not out.exists()
        # build on the same window fits nothing and writes an empty graph
        graph = tmp_path / "short.json"
        argv = ["build", "--prices", str(universe_csv), "--from", "2015-01-03", "--to", to,
                "--out", str(graph)]
        assert run(argv) == 0
        assert load_graph(graph).n_edges == 0

    def test_onbreak_runs_on_the_shortest_window_a_pair_fits_on(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        out = tmp_path / "reports.jsonl"
        code = run(
            [
                "run", "--graph", str(built_graph), "--ticks", str(universe_csv),
                "--recompute", "onbreak", "--prices", str(universe_csv),
                "--from", "2015-01-03", "--to", "2015-01-06", "--out", str(out),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 200

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

    def test_refuses_a_window_too_short_to_refit_before_any_fit(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        # one date cannot refit a pair (the ADF lag rule needs 4): the window
        # is refused by name, as run --recompute onbreak refuses it
        out = tmp_path / "refit.json"
        capsys.readouterr()
        code = run(
            [
                "recompute", "--graph", str(built_graph), "--broken", "0",
                "--prices", str(universe_csv), "--from", "2015-01-03", "--to", "2015-01-03",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "",
            f"cointwatch: error: refit window 2015-01-03:2015-01-03 of {universe_csv} is too "
            "short to fit a pair on: need at least 4 samples to pick a lag order, got 1\n",
        )
        assert not out.exists()

    def test_runs_on_the_shortest_window_a_pair_fits_on(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        out = tmp_path / "refit.json"
        code = run(
            [
                "recompute", "--graph", str(built_graph), "--broken", "0",
                "--prices", str(universe_csv), "--from", "2015-01-03", "--to", "2015-01-06",
                "--out", str(out),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert "recomputed 1 edges" in capsys.readouterr().out
        assert out.exists()


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


@pytest.mark.parametrize("command", ["build", "recompute", "run"])
@pytest.mark.parametrize(
    "bounds",
    [["--from", "2030-01-01"], ["--to", "2000-01-01"],
     ["--from", "2000-01-01", "--to", "2001-01-01"], ["--from", "2015-07-21", "--to", "2015-08-01"]],
    ids=["after", "before", "both-before", "both-after"],
)
def test_a_window_holding_no_date_of_the_file_is_a_data_error(
    tmp_path, built_graph, universe_csv, capsys, command, bounds
):
    # the message names the bounds given and the file's first and last dates
    out = tmp_path / "out"
    argv = {
        "build": ["build", "--prices", str(universe_csv)],
        "recompute": ["recompute", "--graph", str(built_graph), "--broken", "0",
                      "--prices", str(universe_csv)],
        "run": ["run", "--graph", str(built_graph), "--ticks", str(universe_csv),
                "--recompute", "onbreak", "--prices", str(universe_csv)],
    }[command]
    capsys.readouterr()
    assert run(argv + bounds + ["--out", str(out)]) == 2
    last = date(2015, 1, 2) + timedelta(days=199)
    assert capsys.readouterr().err == (
        f"cointwatch: error: window {' '.join(bounds)} holds no date of {universe_csv}: "
        f"its dates run from 2015-01-02 to {last}\n"
    )
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

    def test_ticks_are_the_bytes_of_a_whole_file_write(self, tmp_path, built_graph, universe_csv):
        # gen ticks draws and writes one day at a time; the file is the one
        # the same ticks, held whole and written as columns, give
        out, whole = tmp_path / "t.csv", tmp_path / "whole.csv"
        argv = ["gen", "ticks", "--graph", str(built_graph), "--prices", str(universe_csv),
                "--count", "7", "--seed", "3", "--out", str(out)]
        assert run(argv) == 0
        g = load_graph(built_graph)
        table = pipeline.load_prices(universe_csv)
        base = synth.baseline_tick(g, dict(zip(table.symbols, table.prices[-1].tolist())))
        ticks = [synth.jittered_tick(g, base, seed=3 + i) for i in range(7)]
        days = [table.calendar[-1] + timedelta(days=i + 1) for i in range(7)]
        write_prices_csv(whole, days, {s: [t[s] for t in ticks] for s in ticks[0]})
        assert out.read_bytes() == whole.read_bytes()

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
        "kind, flags",
        [("shock", ["--symbol", "C0S00"]), ("turbulent", ["--fraction", "0.2"])],
    )
    def test_a_shock_beyond_the_float_range_is_a_data_error(
        self, tmp_path, built_graph, universe_csv, capsys, kind, flags
    ):
        # the shocked close would be written as inf, which the tick loader rejects
        out, expected = tmp_path / "t.csv", tmp_path / "expected.json"
        argv = [
            "gen", kind, "--graph", str(built_graph), "--prices", str(universe_csv), *flags,
            "--sigmas", "1e308", "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cointwatch: error: symbol 'C") and "is not finite" in err
        assert err.count("\n") == 1
        assert not out.exists() and not expected.exists()

    def test_an_expected_file_it_cannot_write_leaves_no_ticks(
        self, tmp_path, built_graph, universe_csv, capsys
    ):
        out, expected = tmp_path / "s.csv", tmp_path / "missing" / "e.json"
        argv = [
            "gen", "shock", "--graph", str(built_graph), "--prices", str(universe_csv),
            "--symbol", "C0S00", "--out", str(out), "--expected", str(expected),
        ]
        assert run(argv) == 2
        assert f"No such file or directory: {str(expected)!r}" in capsys.readouterr().err
        assert not out.exists()

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
