"""Data ingestion, windowing, and graph persistence.

File formats:
  prices / ticks CSV — long format with header ``date,symbol,close``;
      ISO-8601 dates, strictly positive decimal closes. The tick file reuses
      the price schema: each distinct date is one tick. Files are read in
      bulk, a block of whole lines at a time, each block's closes written
      straight into the date-by-symbol matrix, so a load holds the matrix
      plus one block; a file the bulk parser cannot vouch for goes through
      the row-by-row ``csv`` loop, which alone judges it and names the line
      of any error. Files are written in bulk too, one date at a time and
      one row per present (date, symbol) cell, byte for byte as
      ``csv.writer`` would.
  graph JSON — the canonical export schema of :mod:`cointwatch.graph`,
      which alone knows and checks its fields (``graph.from_json_obj``);
      save -> load -> save is byte-stable.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from dataclasses import dataclass
from datetime import date
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import graph as graphmod
from .coint import PriceSeries
from .errors import EmptyInput, EmptyWindow, ParseError, SchemaViolation
from .graph import CointGraph

MISSING_FRACTION_LIMIT = 0.10
DEFAULT_FFILL_GAP = 3
_HEADER = ["date", "symbol", "close"]
_BLOCK_CHARS = 1 << 18  # text parsed per block; bounds the loader's working memory
_CSV_QUOTED = frozenset(',"\r\n')


@dataclass(frozen=True)
class PriceTable:
    """Date-by-symbol close matrix; NaN marks a missing observation."""

    calendar: tuple[date, ...]
    symbols: tuple[str, ...]
    prices: np.ndarray
    excluded: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class WindowSlice:
    """Aligned per-symbol series for one window, plus filtering report."""

    series: tuple[PriceSeries, ...]
    excluded: tuple[tuple[str, str], ...]
    filled: tuple[tuple[str, int], ...]
    window_id: str


def _parse_close(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: close {text!r} is not a number", line_no) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ParseError(f"line {line_no}: close {text!r} is not a positive number", line_no)
    return value


def _parse_date(text: str, line_no: int) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"line {line_no}: date {text!r} is not ISO-8601", line_no) from None


def load_prices(path, start: date | None = None, end: date | None = None) -> PriceTable:
    """Read a long-format price CSV into a PriceTable.

    The file is parsed in bulk, a block of lines at a time. A file the bulk
    parser cannot vouch for is read again row by row, and that row loop alone
    decides what it holds: any unparseable row raises ParseError naming its
    (1-based) line. When a window [start, end] is given, symbols missing more
    than 10% of the window's dates are dropped from the table and reported in
    ``excluded``.
    """
    calendar, symbols, prices = _read_bulk(path) or _read_rows(path)
    # the missing-data rule is scoped to an explicitly requested window;
    # a plain load (tick files, inspection) keeps every symbol
    excluded: list[tuple[str, str]] = []
    if start is not None or end is not None:
        in_window = np.array(
            [(start is None or d >= start) and (end is None or d <= end) for d in calendar]
        )
        n_window = int(np.count_nonzero(in_window))
        if n_window:
            present = np.count_nonzero(~np.isnan(prices[in_window]), axis=0).tolist()
            keep = [n_window - n <= MISSING_FRACTION_LIMIT * n_window for n in present]
            excluded = [
                (s, f"missing {n_window - n}/{n_window} dates in window")
                for s, n, kept in zip(symbols, present, keep)
                if not kept
            ]
            if excluded:
                symbols = tuple(compress(symbols, keep))
                prices = prices[:, keep]
    return PriceTable(
        calendar=calendar, symbols=symbols, prices=prices, excluded=tuple(excluded)
    )


def _records(fh):
    """(line, record) for each csv record of an open file, line being the
    physical line the record starts on (a quoted field may span lines); the
    csv module's own errors (such as a field over ``csv.field_size_limit()``)
    become a ParseError naming the line."""
    reader = csv.reader(fh)
    try:
        line = 1
        for record in reader:
            yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}", reader.line_num) from None


def _read_rows(path) -> tuple[tuple[date, ...], tuple[str, ...], np.ndarray]:
    """The row loop: validate one csv record at a time and return the
    calendar, the symbols and the full date-by-symbol close matrix."""
    rows: dict[tuple[date, str], float] = {}
    with open(path, newline="") as fh:
        records = _records(fh)
        _, header = next(records, (1, None))
        if header is None:
            raise EmptyInput(f"{path}: file is empty")
        if [h.strip().lower() for h in header[:3]] != _HEADER:
            raise ParseError(f"line 1: expected header date,symbol,close, got {header!r}", 1)
        for line_no, row in records:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise ParseError(f"line {line_no}: expected 3 fields, got {len(row)}", line_no)
            day = _parse_date(row[0].strip(), line_no)
            symbol = row[1].strip()
            if not symbol:
                raise ParseError(f"line {line_no}: empty symbol", line_no)
            close = _parse_close(row[2].strip(), line_no)
            key = (day, symbol)
            if key in rows:
                raise ParseError(f"line {line_no}: duplicate row for {symbol} on {day}", line_no)
            rows[key] = close
    if not rows:
        raise EmptyInput(f"{path}: no data rows")

    calendar = tuple(sorted({d for d, _ in rows}))
    symbols = tuple(sorted({s for _, s in rows}))
    cal_index = {d: i for i, d in enumerate(calendar)}
    sym_index = {s: j for j, s in enumerate(symbols)}
    prices = np.full((len(calendar), len(symbols)), np.nan)
    for (d, sym), close in rows.items():
        prices[cal_index[d], sym_index[sym]] = close
    return calendar, symbols, prices


def _read_bulk(path) -> tuple[tuple[date, ...], tuple[str, ...], np.ndarray] | None:
    """What _read_rows returns, parsed a block of whole lines at a time, or
    None when the file holds anything the row loop alone may judge: a line
    that is not plain (see _plain_lines; blank lines and rows without
    exactly three fields among them), an unparseable date or close, an empty
    symbol, a close that is not finite and positive, a duplicate (date,
    symbol), undecodable text, or no data rows at all.

    Each distinct date or symbol text is stripped and parsed once; the closes
    of a block go through one ``map(float)`` and are written straight into a
    date-by-symbol grid indexed by first-seen codes (see _grown), so the
    loader holds the matrix and one block, never the file's rows. A file
    whose dates and symbols first appear in sorted order (every file
    write_prices_csv writes) keeps the grid's leading block as its matrix;
    any other is gathered into sorted order once.
    """
    limit = csv.field_size_limit()
    day_of_text: dict[str, int] = {}  # raw date field -> code of its date
    sym_of_text: dict[str, int] = {}  # raw symbol field -> code of its symbol
    day_code: dict[date, int] = {}  # date -> first-seen code, in code order
    sym_code: dict[str, int] = {}
    grid = np.empty((0, 0))
    written = 0
    try:
        with open(path, newline="") as fh:
            header = _plain_lines(fh.readline(), limit) or ""
            if [h.strip().lower() for h in header[:-1].split(",")] != _HEADER:
                return None
            while text := fh.read(_BLOCK_CHARS):
                text = _plain_lines(text + fh.readline(), limit)  # whole lines only
                if text is None:
                    return None
                fields = text.replace("\n", ",").split(",")
                n = len(fields) // 3
                dates, names, values = fields[0:-1:3], fields[1::3], fields[2::3]
                # each new text in first-seen order, so the codes number dates
                # and symbols in the order the file first names them
                for raw in dict.fromkeys(dates):
                    if raw in day_of_text:
                        continue
                    try:
                        day = date.fromisoformat(raw.strip())
                    except ValueError:
                        return None
                    day_of_text[raw] = day_code.setdefault(day, len(day_code))
                for raw in dict.fromkeys(names):
                    if raw in sym_of_text:
                        continue
                    name = raw.strip()
                    if not name:
                        return None
                    sym_of_text[raw] = sym_code.setdefault(name, len(sym_code))
                try:
                    close = np.fromiter(map(float, values), np.float64, count=n)
                except ValueError:
                    return None
                if not np.all(np.isfinite(close) & (close > 0.0)):
                    return None
                rows = np.fromiter(map(day_of_text.__getitem__, dates), np.intp, n)
                cols = np.fromiter(map(sym_of_text.__getitem__, names), np.intp, n)
                # the block's fields go before the next block's are split
                del fields, dates, names, values
                grid = _grown(grid, len(day_code), len(sym_code))
                grid[rows, cols] = close
                written += n
    except UnicodeDecodeError:
        return None
    if not written:
        return None
    calendar = tuple(sorted(day_code))
    symbols = tuple(sorted(sym_code))
    in_order = calendar == tuple(day_code) and symbols == tuple(sym_code)
    if in_order and grid.shape[1] == len(symbols):
        grid.resize((len(calendar), len(symbols)), refcheck=False)  # drops the spare rows
        prices = grid
    else:
        prices = grid[np.ix_([day_code[d] for d in calendar], [sym_code[s] for s in symbols])]
    if prices.size - np.count_nonzero(np.isnan(prices)) != written:
        return None  # a (date, symbol) cell was written twice
    return calendar, symbols, prices


def _grown(grid: np.ndarray, n_days: int, n_symbols: int) -> np.ndarray:
    """grid, NaN-padded to hold at least n_days rows and n_symbols columns:
    a dimension grows only when its count outgrows it, and then at least
    doubles, so a file costs O(log) grows. New columns take a new grid; new
    rows only extend the buffer (in place where realloc can), since a
    C-ordered grid's rows are its trailing memory."""
    rows, cols = grid.shape
    new_rows = rows if n_days <= rows else max(n_days, 2 * rows)
    if n_symbols > cols:
        wider = np.full((new_rows, max(n_symbols, 2 * cols)), np.nan)
        wider[:rows, :cols] = grid
        return wider
    if new_rows > rows:
        grid.resize((new_rows, cols), refcheck=False)  # no view of it is held
        grid[rows:] = np.nan
    return grid


def _plain_lines(text: str, limit: int) -> str | None:
    """text with LF line ends, or None unless every line of it is plain: it
    holds no quote, NUL or bare CR, exactly two commas, and no more than
    ``limit`` characters (so no field can exceed the csv field-size limit)."""
    if '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text.endswith("\n"):
        text += "\n"  # the file's last line may have no terminator
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    # with 2 commas per line on average, line i holds exactly commas 2i and
    # 2i+1 iff each pair falls between line i's start and its end
    plain = (
        len(commas) == 2 * len(ends)
        and np.all(commas[1::2] < ends)
        and np.all(commas[2::2] > ends[:-1])
        and np.diff(ends, prepend=-1).max() <= limit + 1
    )
    return text if plain else None


def slice_window(
    table: PriceTable,
    start: date,
    end: date,
    max_ffill_gap: int = DEFAULT_FFILL_GAP,
) -> WindowSlice:
    """Restrict the table to [start, end] and emit aligned PriceSeries.

    Missing values are forward-filled up to max_ffill_gap consecutive days;
    a symbol with a longer gap, or with no observation at the window start,
    is excluded and reported.
    """
    if start > end:
        raise EmptyWindow(f"window start {start} is after end {end}")
    idx = [i for i, d in enumerate(table.calendar) if start <= d <= end]
    if not idx:
        raise EmptyWindow(f"no calendar dates inside [{start}, {end}]")
    window_id = f"{start.isoformat()}:{end.isoformat()}"

    block = table.prices[idx]
    missing = np.isnan(block)
    # row of the latest observation at or before each row, per symbol; the
    # gap a missing cell sits in is its distance from that row
    rows = np.arange(len(idx))[:, None]
    last_seen = np.maximum.accumulate(np.where(missing, 0, rows), axis=0)
    longest_gap = (rows - last_seen).max(axis=0).tolist()
    n_missing = missing.sum(axis=0).tolist()
    filled_block = np.take_along_axis(block, last_seen, axis=0)

    series: list[PriceSeries] = []
    excluded: list[tuple[str, str]] = []
    filled: list[tuple[str, int]] = []
    for j, symbol in enumerate(table.symbols):
        if missing[0, j]:
            excluded.append((symbol, "no observation at window start"))
        elif longest_gap[j] > max_ffill_gap:
            excluded.append((symbol, f"gap longer than {max_ffill_gap} days"))
        else:
            if n_missing[j]:
                filled.append((symbol, n_missing[j]))
            series.append(PriceSeries(symbol, filled_block[:, j], window_id))
    return WindowSlice(
        series=tuple(series),
        excluded=tuple(excluded),
        filled=tuple(filled),
        window_id=window_id,
    )


def load_ticks(path) -> list[tuple[date, graphmod.TickRow]]:
    """Read a tick CSV (price schema) through load_prices, with its errors;
    returns one (date, tick) per distinct date, in date order, whatever
    order the rows come in.

    The file is held once, as its table's date-by-symbol matrix
    (graph.TickColumns); each tick is a graph.TickRow, a read-only mapping
    view of one row: symbol -> close (a Python float) for each symbol the
    file has a row for on that date, symbols sorted. It is == to the dict
    of those entries, and graph.tick_prices reads it by array gathers.
    """
    table = load_prices(path)
    source = graphmod.TickColumns(table.symbols, table.prices)
    # every date of the calendar comes from a row, so no tick is empty
    return [(day, graphmod.TickRow(source, i)) for i, day in enumerate(table.calendar)]


# -- graph persistence --------------------------------------------------------


def loads_graph(data: bytes | str) -> CointGraph:
    """Parse a graph JSON document; graph.from_json_obj checks its fields.

    The cyclic garbage collector is paused while the document's objects
    are built: they hold no cycles, and its passes over them cost 5-12% of
    a load of a 1-5 MB graph. It is re-enabled after, if it was on before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            obj = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or an int too long to parse
            raise SchemaViolation("$", f"not valid JSON: {exc}") from exc
        g = graphmod.from_json_obj(obj)
    finally:
        if enabled:
            gc.enable()
    graphmod.audit_adjacency(g)
    return g


def load_graph(path) -> CointGraph:
    return loads_graph(Path(path).read_bytes())


def save_graph(g: CointGraph, path) -> None:
    Path(path).write_bytes(graphmod.export(g, graphmod.FORMAT_JSON))


def write_prices_csv(
    path,
    calendar: Sequence[date],
    series: Mapping[str, Sequence[float]] | Iterable[Mapping[str, float]],
) -> None:
    """Write the long-format CSV: one row per (date, symbol) observation.

    `series` holds the closes either as columns, a mapping symbol -> closes
    by date, or as rows, an iterable of mappings symbol -> close, one per
    date. Columns are stacked into one float64 matrix, and each date's row
    of it is made Python floats only as that date is written, so the writer
    holds the matrix plus one row. Rows are read one at a time as their
    dates are written, so rows a generator draws are never all held; their
    symbols are the first row's.
    A value that is None, missing from a row, or a NaN of any float type is
    a gap and writes no row. Closes are written as ``repr(float(value))``
    with csv's ``\\r\\n`` terminator.
    """
    # the closes as rows, one per date: the columns' matrix, or drawn one at a time
    if isinstance(series, Mapping):
        symbols = sorted(series)
        rows: Iterable[np.ndarray] = np.array(
            [np.asarray(series[s], dtype=np.float64)[: len(calendar)] for s in symbols]
        ).reshape(len(symbols), len(calendar)).T
    else:
        drawn = iter(series)
        first = next(drawn, {})
        symbols = sorted(first)
        rows = (
            np.array([row.get(s) for s in symbols], dtype=np.float64)
            for row in chain([first], drawn)
        )
    # csv.writer quotes a field holding one of these; only it formats such rows
    quoted = any(_CSV_QUOTED.intersection(s) for s in symbols)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for row, day in zip(rows, calendar):
            iso = day.isoformat()
            cells = compress(zip(symbols, row.tolist()), (~np.isnan(row)).tolist())
            if quoted:
                writer.writerows([iso, s, repr(v)] for s, v in cells)
            else:
                fh.write("".join([f"{iso},{s},{v!r}\r\n" for s, v in cells]))
