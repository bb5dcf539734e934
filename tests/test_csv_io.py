"""The bulk CSV paths of `cointwatch.pipeline` against the row-at-a-time code
they replaced.

`oracle_load_prices`, `oracle_load_ticks`, `oracle_slice_window` and
`oracle_write_prices_csv` are the cell-by-cell implementations, kept here
verbatim as the reference: every generated file must load to the same
table bit for bit, or fail with the same error class, message and line, and
every written file must hold the same bytes.
"""

import csv
import math
from contextlib import contextmanager
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import pipeline
from cointwatch.coint import PriceSeries
from cointwatch.errors import EmptyInput, EmptyWindow, ParseError
from cointwatch.pipeline import (
    DEFAULT_FFILL_GAP,
    MISSING_FRACTION_LIMIT,
    PriceTable,
    WindowSlice,
    load_prices,
    load_ticks,
    slice_window,
    write_prices_csv,
)

# -- oracles: the row loop and the row writer ---------------------------------


def _oracle_parse_close(text, line_no):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: close {text!r} is not a number", line_no) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ParseError(f"line {line_no}: close {text!r} is not a positive number", line_no)
    return value


def _oracle_parse_date(text, line_no):
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"line {line_no}: date {text!r} is not ISO-8601", line_no) from None


def oracle_load_prices(path, start=None, end=None):
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path}: file is empty")
        if [h.strip().lower() for h in header[:3]] != ["date", "symbol", "close"]:
            raise ParseError(f"line 1: expected header date,symbol,close, got {header!r}", 1)
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise ParseError(f"line {line_no}: expected 3 fields, got {len(row)}", line_no)
            day = _oracle_parse_date(row[0].strip(), line_no)
            symbol = row[1].strip()
            if not symbol:
                raise ParseError(f"line {line_no}: empty symbol", line_no)
            close = _oracle_parse_close(row[2].strip(), line_no)
            key = (day, symbol)
            if key in rows:
                raise ParseError(f"line {line_no}: duplicate row for {symbol} on {day}", line_no)
            rows[key] = close
    if not rows:
        raise EmptyInput(f"{path}: no data rows")

    calendar = tuple(sorted({d for d, _ in rows}))
    symbols = sorted({s for _, s in rows})
    cal_index = {d: i for i, d in enumerate(calendar)}
    if start is None and end is None:
        window = []
    else:
        window = [
            d for d in calendar if (start is None or d >= start) and (end is None or d <= end)
        ]

    kept = []
    excluded = []
    for s in symbols:
        if window:
            missing = sum(1 for d in window if (d, s) not in rows)
            if missing > MISSING_FRACTION_LIMIT * len(window):
                excluded.append((s, f"missing {missing}/{len(window)} dates in window"))
                continue
        kept.append(s)

    prices = np.full((len(calendar), len(kept)), np.nan)
    sym_index = {s: j for j, s in enumerate(kept)}
    for (d, sym), close in rows.items():
        j = sym_index.get(sym)
        if j is not None:
            prices[cal_index[d], j] = close
    return PriceTable(
        calendar=calendar, symbols=tuple(kept), prices=prices, excluded=tuple(excluded)
    )


def oracle_load_ticks(path):
    table = oracle_load_prices(path)
    ticks = []
    for i, day in enumerate(table.calendar):
        row = table.prices[i]
        tick = {s: float(row[j]) for j, s in enumerate(table.symbols) if not math.isnan(row[j])}
        if tick:
            ticks.append((day, tick))
    return ticks


def oracle_slice_window(table, start, end, max_ffill_gap=DEFAULT_FFILL_GAP):
    if start > end:
        raise EmptyWindow(f"window start {start} is after end {end}")
    mask = [start <= d <= end for d in table.calendar]
    if not any(mask):
        raise EmptyWindow(f"no calendar dates inside [{start}, {end}]")
    idx = [i for i, m in enumerate(mask) if m]
    window_id = f"{start.isoformat()}:{end.isoformat()}"

    series = []
    excluded = []
    filled = []
    for j, symbol in enumerate(table.symbols):
        col = table.prices[idx, j]
        if math.isnan(col[0]):
            excluded.append((symbol, "no observation at window start"))
            continue
        out = col.copy()
        gap = 0
        n_filled = 0
        too_long = False
        for i in range(1, len(out)):
            if math.isnan(out[i]):
                gap += 1
                if gap > max_ffill_gap:
                    too_long = True
                    break
                out[i] = out[i - 1]
                n_filled += 1
            else:
                gap = 0
        if too_long:
            excluded.append((symbol, f"gap longer than {max_ffill_gap} days"))
            continue
        if n_filled:
            filled.append((symbol, n_filled))
        series.append(PriceSeries(symbol, out, window_id))
    return WindowSlice(
        series=tuple(series), excluded=tuple(excluded), filled=tuple(filled), window_id=window_id
    )


def oracle_write_prices_csv(path, calendar, series):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "symbol", "close"])
        for i, day in enumerate(calendar):
            for symbol in sorted(series):
                value = series[symbol][i]
                if value is None or (isinstance(value, float) and math.isnan(value)):
                    continue
                writer.writerow([day.isoformat(), symbol, repr(float(value))])


# -- comparison helpers -------------------------------------------------------


def outcome(fn, *args):
    """('ok', result) or ('error', class, message, line)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def assert_same_table(got, want):
    assert got.calendar == want.calendar
    assert got.symbols == want.symbols
    assert got.excluded == want.excluded
    assert got.prices.dtype == want.prices.dtype
    assert got.prices.shape == want.prices.shape
    assert got.prices.tobytes() == want.prices.tobytes()


def assert_same_load(path, start=None, end=None):
    got = outcome(load_prices, path, start, end)
    want = outcome(oracle_load_prices, path, start, end)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_same_table(got[1], want[1])
    else:
        assert got == want
    return got


@contextmanager
def block_chars(n):
    with mock.patch.object(pipeline, "_BLOCK_CHARS", n):
        yield


# -- generated files ----------------------------------------------------------

DAYS = [date(2015, 1, 2) + timedelta(days=k) for k in range(8)]
SYMBOLS = ["AAA", "BB", "C1", "D_D", "Ee"]
SPARE_DAY = date(2015, 3, 1)  # defect rows' dates, outside DAYS
ENDINGS = ["\n", "\r\n", "\r"]

bad_date = st.sampled_from(["01/02/2015", "2015-13-01", "", "tomorrow"])
bad_symbol = st.sampled_from(["", "  ", '"AAA"', 'A"A'])
good_close = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(["1_0", " 2.5", "3.25 ", "7", "1e2"]),
)
bad_close = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.0", "1e400", "oops", "", '"5"'])


@st.composite
def price_file(draw):
    """Text of a price CSV: well formed rows in any order, plus up to two
    irregular rows, most of which the bulk parser must hand to the row loop."""
    cells = draw(
        st.lists(st.tuples(st.sampled_from(DAYS), st.sampled_from(SYMBOLS)), max_size=30,
                 unique=True)
    )
    rows = [
        [
            draw(st.sampled_from([d.isoformat(), f" {d.isoformat()}", d.strftime("%Y%m%d")])),
            draw(st.sampled_from([s, f" {s}", f"{s} "])),
            draw(good_close),
        ]
        for d, s in cells
    ]
    lines = [",".join(row) for row in rows]
    defects = draw(st.lists(st.sampled_from([
        "bad_date", "bad_symbol", "bad_close", "short_row", "long_row", "blank", "spaces",
        "quoted", "duplicate", "padded", "wrapped",
    ]), max_size=2))
    for k, defect in enumerate(defects):
        # a defect row has a cell of its own, so it is the only fault it adds
        day = (SPARE_DAY + timedelta(days=k)).isoformat()
        # an earlier defect (a short row, a blank line) may have no comma
        wrappable = [k for k in range(len(lines) - 1) if "," in lines[k]]
        if defect == "wrapped" and wrappable:
            # one row's close moved to the start of the next line: the field
            # count still averages three per line
            at = draw(st.sampled_from(wrappable))
            head, close = lines[at].rsplit(",", 1)
            lines[at: at + 2] = [head, f"{close},{lines[at + 1]}"]
            continue
        if defect == "bad_date":
            line = f"{draw(bad_date)},ZZ,{draw(good_close)}"
        elif defect == "bad_symbol":
            line = f"{day},{draw(bad_symbol)},{draw(good_close)}"
        elif defect == "bad_close":
            line = f"{day},ZZ,{draw(bad_close)}"
        elif defect == "short_row":
            line = draw(st.sampled_from([f"{day},ZZ", day, ","]))
        elif defect == "long_row":
            line = f"{day},ZZ,{draw(good_close)},extra"
        elif defect == "blank":
            line = ""
        elif defect == "spaces":
            line = draw(st.sampled_from([" ", "\t", "  \t "]))
        elif defect == "quoted":
            line = f'{day},"ZZ",{draw(good_close)}'
        elif defect == "duplicate" and lines:
            line = draw(st.sampled_from(lines))
        else:  # padded fields around the separators
            line = f" {day} , ZZ , {draw(good_close)} "
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = draw(st.sampled_from([
        "date,symbol,close", "date,symbol,close", " Date , SYMBOL,close ",
        "date,symbol,close,note", '"date",symbol,close', "time,ticker,price",
    ]))
    ending = draw(st.sampled_from(ENDINGS))
    mixed = draw(st.booleans()) and draw(st.booleans())
    out = [header]
    for line in lines:
        out.append(draw(st.sampled_from(ENDINGS)) if mixed else ending)
        out.append(line)
    if draw(st.booleans()):
        out.append(ending)
    return "".join(out)


window_bound = st.one_of(st.none(), st.sampled_from(DAYS + [date(2014, 12, 1), date(2016, 1, 1)]))


class TestLoadPricesMatchesRowLoop:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        text=price_file(),
        start=window_bound,
        end=window_bound,
        block=st.sampled_from([1, 7, 40, 1 << 18]),
    )
    def test_generated_files(self, tmp_path, text, start, end, block):
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        with block_chars(block):
            assert_same_load(path, start, end)
            if start is None and end is None:
                got, want = outcome(load_ticks, path), outcome(oracle_load_ticks, path)
                assert got[0] == want[0]
                if got[0] == "ok":
                    assert [(d, list(t.items())) for d, t in got[1]] == [
                        (d, list(t.items())) for d, t in want[1]
                    ]
                    assert all(type(v) is float for _, t in got[1] for v in t.values())
                else:
                    assert got == want

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cells=st.lists(
            st.tuples(st.sampled_from(DAYS), st.sampled_from(SYMBOLS),
                      st.floats(min_value=1e-3, max_value=1e6)),
            min_size=1, max_size=40, unique_by=lambda c: c[:2],
        ),
        crlf=st.booleans(),
        block=st.sampled_from([1, 7, 40, 1 << 18]),
    )
    def test_plain_files_take_the_bulk_path(self, tmp_path, cells, crlf, block):
        # clean, unsorted files: the bulk parser must vouch for them itself
        # and agree with the row loop, whatever the block size
        ending = "\r\n" if crlf else "\n"
        text = ending.join(["date,symbol,close"] + [f"{d},{s},{c!r}" for d, s, c in cells])
        path = tmp_path / "p.csv"
        path.write_text(text + ending, newline="")
        with block_chars(block):
            cells_read = pipeline._read_bulk(path)
            assert cells_read is not None
            calendar, symbols, prices = cells_read
            want = oracle_load_prices(path)
            assert_same_table(PriceTable(calendar, symbols, prices), want)

    @pytest.mark.parametrize(
        "lines",
        [
            ["2015-01-05,AAA,oops"],
            ["2015-01-05,AAA,nan"],
            ["2015-01-05,AAA,inf"],
            ["2015-01-05,AAA,1e400"],
            ["2015-01-05,AAA,-1"],
            ["2015-01-05,AAA,0"],
            ["2015-01-05,AAA,"],
            ["01/05/2015,AAA,1.0"],
            ["2015-01-05, ,1.0"],
            ["2015-01-05,AAA"],
            ["2015-01-05,AAA,1.0,note"],
            ["2015-01-05,AAA,1.0", "2015-01-05, AAA ,2.0"],
            ["2015-01-05,AAA", "1.0,2015-01-06,BB,2.0"],  # two rows trade a field
            ["", "2015-01-05,AAA,1.0"],
            ["   ", "2015-01-05,AAA,1.0"],
            ['2015-01-05,"AAA",1.0'],
            ['2015-01-05,"A,B",1.0'],
            ["2015-01-05,AAA,1.0\r2015-01-06,AAA,2.0"],
        ],
    )
    def test_bulk_path_declines(self, tmp_path, lines):
        # each file holds one thing only the row loop may judge, after rows
        # the bulk parser would take
        rows = ["date,symbol,close", "2015-01-02,AAA,1.5", "2015-01-02,BB,2.5"]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(rows + lines) + "\n", newline="")
        assert pipeline._read_bulk(path) is None
        assert_same_load(path)

    def test_file_longer_than_one_block(self, tmp_path):
        # a few thousand rows over several default-size blocks, one symbol
        # missing from part of the window
        rng = np.random.default_rng(4)
        days = [date(2010, 1, 1) + timedelta(days=k) for k in range(400)]
        lines = ["date,symbol,close"]
        for i, d in enumerate(days):
            for s in ("S0", "S1", "S2", "SPARSE"):
                if s != "SPARSE" or i % 3:
                    lines.append(f"{d.isoformat()},{s},{rng.uniform(1, 500)!r}")
        path = tmp_path / "p.csv"
        path.write_text("\r\n".join(lines) + "\r\n", newline="")
        with block_chars(4096):
            assert pipeline._read_bulk(path) is not None
            table = assert_same_load(path, days[10], days[300])[1]
        assert table.excluded == (("SPARSE", "missing 97/291 dates in window"),)

    @pytest.mark.parametrize("where", ["date", "symbol", "close"])
    def test_field_over_the_csv_limit_is_a_parse_error(self, tmp_path, where):
        limit = csv.field_size_limit()
        fields = {"date": "2015-01-02", "symbol": "AAA", "close": "1.5"}
        fields[where] = fields[where].rjust(limit + 1)
        path = tmp_path / "p.csv"
        path.write_text(
            "date,symbol,close\n2015-01-01,AAA,1.0\n"
            + ",".join(fields[k] for k in ("date", "symbol", "close"))
            + "\n"
        )
        assert pipeline._read_bulk(path) is None
        with pytest.raises(ParseError, match="line 3: field larger than field limit") as err:
            load_prices(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("later", ["oops", "field"])
    def test_errors_name_physical_lines_after_a_multiline_field(self, tmp_path, later):
        # the quoted symbol spans lines 2-3, so the bad row starts on line 4
        # whichever error it raises
        close = "1.5".rjust(csv.field_size_limit() + 1) if later == "field" else "oops"
        path = tmp_path / "p.csv"
        path.write_text(f'date,symbol,close\n2015-01-02,"A\nB",1.0\n2015-01-03,AAA,{close}\n')
        with pytest.raises(ParseError, match="^line 4: ") as err:
            load_prices(path)
        assert err.value.line == 4

    def test_a_multiline_record_is_named_by_its_first_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('date,symbol,close\n\n2015-01-02,"A\nB",oops\n')
        with pytest.raises(ParseError, match="^line 3: close 'oops'") as err:
            load_prices(path)
        assert err.value.line == 3

    def test_field_at_the_csv_limit_loads(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "p.csv"
        path.write_text(f"date,symbol,close\n2015-01-02,AAA,{'1.5'.rjust(limit)}\n")
        assert load_prices(path).prices[0, 0] == 1.5

    def test_undecodable_bytes_fail_as_in_the_row_loop(self, tmp_path):
        # the row loop decodes as it goes and meets the bad close first; a
        # bulk block that cannot be decoded must not pre-empt that error
        path = tmp_path / "p.csv"
        filler = b"".join(b"2015-02-%02d,F%04d,1.0\n" % (1 + k % 28, k) for k in range(2000))
        path.write_bytes(
            b"date,symbol,close\n2015-01-02,AAA,oops\n" + filler + b"2015-01-03,\xff\xfe,1.0\n"
        )
        got = outcome(load_prices, path)
        assert got == outcome(oracle_load_prices, path)
        assert got[1] is ParseError and got[3] == 2


class TestSliceWindowMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        mask=st.lists(st.lists(st.booleans(), min_size=4, max_size=4), min_size=1, max_size=12),
        lo=st.integers(0, 11),
        span=st.integers(0, 11),
        gap=st.integers(0, 4),
    )
    def test_forward_fill(self, mask, lo, span, gap):
        n = len(mask)
        calendar = tuple(date(2015, 1, 1) + timedelta(days=k) for k in range(n))
        values = 100.0 + np.arange(n * 4, dtype=float).reshape(n, 4)
        prices = np.where(np.array(mask), values, np.nan)
        table = PriceTable(calendar, ("A", "B", "C", "D"), prices)
        start = calendar[min(lo, n - 1)]
        end = start + timedelta(days=span)
        got = slice_window(table, start, end, max_ffill_gap=gap)
        want = oracle_slice_window(table, start, end, max_ffill_gap=gap)
        assert (got.excluded, got.filled, got.window_id) == (
            want.excluded, want.filled, want.window_id
        )
        assert [s.symbol for s in got.series] == [s.symbol for s in want.series]
        for a, b in zip(got.series, want.series):
            assert a.values.tobytes() == b.values.tobytes()


# -- writing ------------------------------------------------------------------


def write_both(tmp_path, calendar, series):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_prices_csv(new, calendar, series)
    oracle_write_prices_csv(old, calendar, series)
    return new.read_bytes(), old.read_bytes()


column_values = st.lists(
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e9), st.integers(1, 10**6)),
    min_size=6, max_size=6,
)


class TestWritePricesCsvMatchesRowWriter:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        columns=st.dictionaries(
            st.one_of(
                st.sampled_from(SYMBOLS),
                st.text(st.sampled_from('ab ,"\r\n'), min_size=1, max_size=4),
            ),
            st.one_of(
                column_values,
                column_values.map(
                    lambda v: np.array([math.nan if x is None else float(x) for x in v])
                ),
                st.lists(st.integers(1, 10**6), min_size=6, max_size=6).map(np.array),
            ),
            max_size=5,
        ),
    )
    def test_same_bytes(self, tmp_path, columns):
        calendar = [date(2015, 1, 2) + timedelta(days=k) for k in range(6)]
        new, old = write_both(tmp_path, calendar, columns)
        assert new == old

    def test_quoted_symbol_bytes(self, tmp_path):
        calendar = [date(2015, 1, 2), date(2015, 1, 5)]
        columns = {"A,B": [1.5, None], 'Q"Q': np.array([2.0, 3.0]), "PLAIN": [4, 5]}
        new, old = write_both(tmp_path, calendar, columns)
        assert new == old
        assert b'"A,B"' in new and b"\r\n" in new

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_gaps_round_trip(self, tmp_path, dtype):
        calendar = [date(2015, 1, 2) + timedelta(days=k) for k in range(5)]
        columns = {
            "ARR": np.array([1.5, np.nan, 2.25, 3.0, np.nan], dtype=dtype),
            "LIST": [4.0, 5.0, None, 6.5, 7.0],
        }
        path = tmp_path / "p.csv"
        write_prices_csv(path, calendar, columns)
        assert b"nan" not in path.read_bytes()
        table = load_prices(path)
        assert table.calendar == tuple(calendar)
        assert table.symbols == ("ARR", "LIST")
        expected = np.array(
            [[1.5, 4.0], [np.nan, 5.0], [2.25, np.nan], [3.0, 6.5], [np.nan, 7.0]]
        )
        assert np.array_equal(table.prices, expected, equal_nan=True)

    def test_write_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        calendar = [date(2016, 3, 1) + timedelta(days=k) for k in range(50)]
        prices = rng.lognormal(4.0, 1.0, size=(50, 7))
        prices[rng.random((50, 7)) < 0.2] = np.nan
        prices[0] = 1.0  # every symbol observed at least once
        columns = {f"S{j}": prices[:, j] for j in range(7)}
        path = tmp_path / "p.csv"
        write_prices_csv(path, calendar, columns)
        assert pipeline._read_bulk(path) is not None
        table = load_prices(path)
        assert table.prices.tobytes() == prices.tobytes()
