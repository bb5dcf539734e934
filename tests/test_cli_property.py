"""The CLI contract as one property, over every command.

Hypothesis drives cli.main in process over small valid inputs, small
mutations of them (header only, a truncated line, an unknown symbol, a
repeated row, rows out of order, CRLF or LF line ends, a bad close, a
graph with a field removed, a missing file) and edge-case flag values
(NaN, +-inf, negative, huge, not a number). Whatever it draws:

- the exit code is 0, 1 or 2, and no exception escapes;
- stderr holds no traceback;
- on a non-zero exit every output path is as it was: absent if it was
  absent, byte for byte if it existed, and no temporary file is left;
- on exit 0, build's, export's and run's outputs are the bytes of the
  library calls they stand for (library_outputs): export(build_graph(
  scan_pairs(...))) on the same window, export(load_graph(...), format),
  and the to_json lines of tick_loop over load_ticks, with its end graph.

--workers is drawn as 1 or 2 only, and the sizes gen universe and gen
ticks make (--clusters, --cluster-size, --independents, --days, --count)
never huge, since a huge valid size makes that much data by design.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cointwatch import pipeline
from cointwatch.alert import RECOMPUTE_ON_BREAK, AlertConfig, tick_loop
from cointwatch.cli import build_parser, main
from cointwatch.coint import scan_pairs
from cointwatch.graph import build_graph, export

FLOATS = ["0.05", "0.5", "0", "1", "3", "-1", "nan", "inf", "-inf", "1e308", "-1e308",
          "1e-300", "x"]
INTS = ["0", "1", "2", "-1", "1000", str(2**70), "x", "1.5"]
SIZES = ["0", "1", "2", "3", "-1", "x"]
DATES = ["2015-01-02", "2015-02-15", "2015-04-30", "2030-01-01", "2020-13-01", "x"]
IDS = ["0", "0,0", "1,3", "-1", "999", str(2**70), "x", ""]
SYMBOLS = ["C0S00", "C0S02", "X00", "NOPE", ""]


def _csv_mutations(text):
    header, *rows = text.splitlines(keepends=True)
    body = "".join(rows)
    date, symbol, close = rows[0].rstrip("\r\n").split(",")
    end = rows[0][len(rows[0].rstrip("\r\n")):]
    return {
        "valid": text,
        "header-only": header,
        "truncated": text[: len(text) - len(rows[-1]) // 2],
        "unknown-symbol": header + f"{date},NOPE,{close}{end}" + "".join(rows[1:]),
        "repeated-row": header + rows[0] + body,
        "reversed": header + "".join(reversed(rows)),
        "lf": text.replace("\r\n", "\n"),
        "crlf": text.replace("\r\n", "\n").replace("\n", "\r\n"),
        "nan-close": header + f"{date},{symbol},nan{end}" + "".join(rows[1:]),
        "negative-close": header + f"{date},{symbol},-1.0{end}" + "".join(rows[1:]),
        "empty": "",
    }


def _graph_mutations(text):
    obj = json.loads(text)
    out = {"valid": text, "truncated": text[: len(text) // 2], "empty": "", "list": "[]\n"}
    for name, drop in [
        ("no-last-price", lambda g: g["nodes"][0].pop("last_price")),
        ("no-model", lambda g: g["edges"][0].pop("model")),
        ("no-edges", lambda g: g.pop("edges")),
        ("no-epoch", lambda g: g.pop("epoch")),
    ]:
        mutated = json.loads(text)
        drop(mutated)
        out[name] = json.dumps(mutated)
    obj["edges"][0]["src"] = 10**6
    out["bad-endpoint"] = json.dumps(obj)
    return out


def _ids_mutations(text):
    return {"valid": text, "truncated": text[:2], "empty": "", "bools": "[true]\n",
            "unknown": "[999]\n", "object": "{}\n"}


class _Inputs(dict):
    """name -> {mutation -> text}; shown by name in a falsifying example."""

    def __repr__(self):
        return f"<inputs {sorted(self)}>"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """name -> {mutation -> text} for each input file."""
    d = tmp_path_factory.mktemp("cli-inputs")
    quiet = contextlib.redirect_stdout(io.StringIO())
    prices, graph, ticks = d / "prices.csv", d / "graph.json", d / "ticks.csv"
    shock, expected = d / "shock.csv", d / "expected.json"
    with quiet:
        assert main(["gen", "universe", "--clusters", "1", "--cluster-size", "3",
                     "--independents", "1", "--days", "80", "--seed", "5",
                     "--out", str(prices)]) == 0
        assert main(["build", "--prices", str(prices), "--out", str(graph)]) == 0
        common = ["--graph", str(graph), "--prices", str(prices)]
        assert main(["gen", "ticks", *common, "--count", "3", "--out", str(ticks)]) == 0
        assert main(["gen", "shock", *common, "--symbol", "C0S00", "--out", str(shock),
                     "--expected", str(expected)]) == 0
    return _Inputs({
        "prices": _csv_mutations(prices.read_bytes().decode()),
        "ticks": _csv_mutations(ticks.read_bytes().decode()),
        "shock": _csv_mutations(shock.read_bytes().decode()),
        "graph": _graph_mutations(graph.read_text()),
        "ids": _ids_mutations(expected.read_text()),
    })


@st.composite
def invocations(draw, inputs):
    """(argv with {in:NAME} and {out:NAME} placeholders, the files to write
    as inputs {NAME: text, or None for a missing file}, the outputs that
    exist before the call).

    Each example draws how wild it is: the chance, from 0 to 4 in 8, that
    each input is a mutation and each flag an edge-case value; otherwise
    the input is valid and the flag valid or left out."""
    files = {}
    wild = draw(st.integers(0, 4))

    def is_wild():
        return draw(st.integers(0, 7)) < wild

    def infile(kind, name=None):
        name = name or kind
        mutation = "valid"
        if is_wild():
            mutation = draw(st.sampled_from(sorted(inputs[kind]) + ["missing"]))
        files[name] = None if mutation == "missing" else inputs[kind][mutation]
        return "{in:%s}" % name

    def pick(valid, edge):
        return draw(st.sampled_from(edge if is_wild() else valid))

    def opt(flag, valid, edge=()):
        if edge and is_wild():
            value = draw(st.sampled_from(edge))
        else:
            value = draw(st.none() | st.sampled_from(valid))
        # --flag=value, so a value such as -inf is not read as a flag
        return [] if value is None else [f"{flag}={value}"]

    def window():
        return opt("--from", ["2015-01-02", "2015-01-20"], DATES) + opt(
            "--to", ["2015-03-20", "2030-01-01"], DATES
        )

    command = draw(st.sampled_from(["build", "run", "recompute", "export", "gen"]))
    if command == "build":
        argv = ["build", "--prices", infile("prices"), *window(),
                *opt("--alpha", ["0.05", "0.5"], FLOATS), *opt("--lags", ["0", "2"], INTS),
                *opt("--direction", ["both", "single"]),
                "--workers", draw(st.sampled_from(["1", "2"])), "--out", "{out:graph}"]
    elif command == "run":
        argv = ["run", "--graph", infile("graph"),
                "--ticks", infile(draw(st.sampled_from(["ticks", "shock"])), "ticks"),
                *opt("--sigma", ["3", "0.5"], FLOATS), *opt("--epsilon", ["0.05", "0.5"], FLOATS),
                *opt("--global-fraction", ["0.2", "0", "1"], FLOATS),
                *opt("--recompute", ["off", "onbreak"]),
                *(["--prices", infile("prices")] if draw(st.booleans()) else []), *window(),
                "--out", "{out:reports}",
                *(["--graph-out", "{out:graph}"] if draw(st.booleans()) else [])]
    elif command == "recompute":
        ids = (["--broken-file", infile("ids")] if draw(st.booleans())
               else [f"--broken={pick(['0', '0,1'], IDS)}"])
        argv = ["recompute", "--graph", infile("graph"), *ids, "--prices", infile("prices"),
                *window(), *opt("--epsilon", ["0.05", "0.5"], FLOATS), "--out", "{out:graph}"]
    elif command == "export":
        argv = ["export", "--graph", infile("graph"), *opt("--format", ["dot", "json"]),
                "--out", draw(st.sampled_from(["{out:export}", "-"]))]
    else:
        kind = draw(st.sampled_from(["universe", "ticks", "shock", "turbulent"]))
        argv = ["gen", kind, *opt("--seed", ["0", "3"], INTS), "--out", "{out:ticks}"]
        if kind == "universe":
            argv += [*opt("--clusters", ["1", "2"], SIZES),
                     *opt("--cluster-size", ["2", "3"], SIZES),
                     *opt("--independents", ["0", "2"], SIZES),
                     *opt("--days", ["30", "60"], ["1", "2", "0", "-1", "x"]),
                     *opt("--start", ["2015-01-02"], DATES)]
        else:
            symbol = opt("--symbol", ["C0S00", "C0S02"], SYMBOLS)
            argv += ["--graph", infile("graph"), "--prices", infile("prices"),
                     *opt("--count", ["1", "3"], SIZES),
                     *(symbol or (["--symbol", "C0S01"] if kind == "shock" else [])),
                     *opt("--sigmas", ["6", "0.5"], FLOATS), *opt("--mode", ["all", "none"]),
                     *opt("--fraction", ["0.2", "0.3"], FLOATS),
                     *(["--expected", "{out:expected}"] if draw(st.booleans()) else [])]
    # an output may be drawn in a directory that does not exist
    argv = [a.replace("{out:", "{out:missing/") if a.startswith("{out:") and is_wild() else a
            for a in argv]
    outputs = sorted({a[5:-1] for a in argv if a.startswith("{out:") and "/" not in a})
    existing = draw(st.sets(st.sampled_from(outputs))) if outputs else set()
    return argv, files, existing


def _window(args):
    """The series of --prices over the --from/--to window, a bound not
    given being the file's first or last date."""
    table = pipeline.load_prices(args.prices, args.window_start, args.window_end)
    lo, hi = args.window_start or table.calendar[0], args.window_end or table.calendar[-1]
    return pipeline.slice_window(table, lo, hi).series


def library_outputs(argv):
    """{output path ("-" for stdout): the bytes the library calls the
    command stands for write there}, for build, export and run."""
    args = build_parser().parse_args(argv)
    if args.command == "build":
        series = _window(args)
        scan = scan_pairs(series, args.alpha, args.direction, lags=args.lags)
        return {args.out: export(build_graph(scan, args.alpha, [p.symbol for p in series]))}
    if args.command == "export":
        return {args.out: export(pipeline.load_graph(args.graph), args.format)}
    if args.command == "run":
        config = AlertConfig(sigma_k=args.sigma, epsilon=args.epsilon,
                             global_fraction=args.global_fraction)
        history = _window(args) if args.recompute == RECOMPUTE_ON_BREAK else None
        ticks = (tick for _, tick in pipeline.load_ticks(args.ticks))
        stream = tick_loop(pipeline.load_graph(args.graph), ticks, config,
                           recompute_policy=args.recompute, history=history)
        want = {args.out: "".join(report.to_json() + "\n" for report in stream).encode()}
        if args.graph_out is not None:
            want[args.graph_out] = export(stream.graph)
        return want
    return {}


def _contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-runs")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_command_exits_cleanly_and_a_failed_one_leaves_its_outputs(inputs, scratch, data):
    argv, files, existing = data.draw(invocations(inputs))
    root = Path(tempfile.mkdtemp(dir=scratch))
    try:
        into, out = root / "in", root / "out"
        into.mkdir()
        out.mkdir()
        for name, text in files.items():
            if text is not None:
                (into / name).write_text(text, newline="")
        for name in existing:
            (out / name).write_bytes(b"earlier " + name.encode() + b"\n")
        argv = [
            str(into / a[4:-1]) if a.startswith("{in:")
            else str(out / a[5:-1]) if a.startswith("{out:") else a
            for a in argv
        ]
        before = _contents(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2), (code, argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue(), (argv, stderr.getvalue())
        if code != 0:
            assert _contents(out) == before, (argv, stderr.getvalue())
        else:
            for path, want in library_outputs(argv).items():
                got = stdout.getvalue().encode() if path == "-" else Path(path).read_bytes()
                assert got == want, argv
    finally:
        shutil.rmtree(root)
