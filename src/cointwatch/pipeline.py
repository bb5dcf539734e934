"""Data ingestion, windowing, and graph persistence.

File formats:
  prices / ticks CSV — long format with header ``date,symbol,close``;
      ISO-8601 dates, strictly positive decimal closes. The tick file reuses
      the price schema: each distinct date is one tick.
  graph JSON — the canonical export schema from :mod:`cointwatch.graph`
      (``epoch``, ``nodes`` array, ``edges`` array with model fields);
      save -> load -> save is byte-stable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np

from . import graph as graphmod
from .coint import PriceSeries
from .errors import EmptyInput, EmptyWindow, ParseError, SchemaViolation
from .graph import ALERTED, CLEAR, CointGraph

MISSING_FRACTION_LIMIT = 0.10
DEFAULT_FFILL_GAP = 3


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

    Any unparseable row raises ParseError naming its (1-based, physical)
    line. When a window [start, end] is given, symbols missing more than 10%
    of the window's dates are dropped from the table and reported in
    ``excluded``.
    """
    rows: dict[tuple[date, str], float] = {}
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
    symbols = sorted({s for _, s in rows})
    cal_index = {d: i for i, d in enumerate(calendar)}
    # the missing-data rule is scoped to an explicitly requested window;
    # a plain load (tick files, inspection) keeps every symbol
    if start is None and end is None:
        window: list[date] = []
    else:
        window = [
            d for d in calendar if (start is None or d >= start) and (end is None or d <= end)
        ]

    kept: list[str] = []
    excluded: list[tuple[str, str]] = []
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
    mask = [start <= d <= end for d in table.calendar]
    if not any(mask):
        raise EmptyWindow(f"no calendar dates inside [{start}, {end}]")
    idx = [i for i, m in enumerate(mask) if m]
    window_id = f"{start.isoformat()}:{end.isoformat()}"

    series: list[PriceSeries] = []
    excluded: list[tuple[str, str]] = []
    filled: list[tuple[str, int]] = []
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
        series=tuple(series),
        excluded=tuple(excluded),
        filled=tuple(filled),
        window_id=window_id,
    )


def load_ticks(path) -> list[tuple[date, dict[str, float]]]:
    """Read a tick CSV (price schema); returns per-date price maps in date
    order. Dates must arrive grouped or sortable; the result is sorted."""
    table = load_prices(path)
    ticks: list[tuple[date, dict[str, float]]] = []
    for i, day in enumerate(table.calendar):
        row = table.prices[i]
        tick = {s: float(row[j]) for j, s in enumerate(table.symbols) if not math.isnan(row[j])}
        if tick:
            ticks.append((day, tick))
    return ticks


# -- graph persistence --------------------------------------------------------


def _expect(obj, key, types, path):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in _as_tuple(types):
        raise SchemaViolation(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _as_tuple(types):
    return types if isinstance(types, tuple) else (types,)


def _validate_model(obj, path):
    for key in ("beta0", "beta1", "resid_mean", "resid_std", "adf_stat"):
        value = _expect(obj, key, (int, float), path)
        if not math.isfinite(value):
            raise SchemaViolation(f"{path}.{key}", "must be finite")
    pvalue = _expect(obj, "pvalue", (int, float), path)
    if not 0.0 <= pvalue <= 1.0:
        raise SchemaViolation(f"{path}.pvalue", f"must be in [0, 1], got {pvalue}")
    if obj["resid_std"] <= 0.0:
        raise SchemaViolation(f"{path}.resid_std", f"must be > 0, got {obj['resid_std']}")
    _expect(obj, "window_id", str, path)


def _validate_graph_obj(obj) -> None:
    epoch = _expect(obj, "epoch", int, "$")
    if epoch < 0:
        raise SchemaViolation("$.epoch", f"must be >= 0, got {epoch}")
    nodes = _expect(obj, "nodes", list, "$")
    seen_symbols: set[str] = set()
    for i, node in enumerate(nodes):
        path = f"nodes[{i}]"
        node_id = _expect(node, "id", int, path)
        if node_id != i:
            raise SchemaViolation(f"{path}.id", f"ids must be dense, expected {i}, got {node_id}")
        symbol = _expect(node, "symbol", str, path)
        if symbol in seen_symbols:
            raise SchemaViolation(f"{path}.symbol", f"duplicate symbol {symbol!r}")
        seen_symbols.add(symbol)
        price = node.get("last_price")
        if price is not None:
            if not isinstance(price, (int, float)) or isinstance(price, bool):
                raise SchemaViolation(f"{path}.last_price", "must be a number or null")
            if not math.isfinite(price) or price <= 0:
                raise SchemaViolation(f"{path}.last_price", f"must be positive, got {price}")
        state = _expect(node, "alert_state", str, path)
        if state not in (CLEAR, ALERTED):
            raise SchemaViolation(f"{path}.alert_state", f"unknown state {state!r}")
        history = _expect(node, "alert_history", list, path)
        last_epoch = None
        for k, item in enumerate(history):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], int)
                or item[1] not in (CLEAR, ALERTED)
            ):
                raise SchemaViolation(f"{path}.alert_history[{k}]", "expected [epoch, state]")
            if last_epoch is not None and item[0] <= last_epoch:
                raise SchemaViolation(
                    f"{path}.alert_history[{k}]", "epochs must be strictly increasing"
                )
            last_epoch = item[0]
        if last_epoch is not None and last_epoch > epoch:
            raise SchemaViolation(
                f"{path}.alert_history[{len(history) - 1}]",
                f"epoch {last_epoch} is after graph epoch {epoch}",
            )
        updated = _expect(node, "last_update_epoch", int, path)
        if updated > epoch:
            raise SchemaViolation(
                f"{path}.last_update_epoch", f"{updated} is after graph epoch {epoch}"
            )

    edges = _expect(obj, "edges", list, "$")
    seen_pairs: set[tuple[int, int]] = set()
    seen_ids: set[int] = set()
    for i, edge in enumerate(edges):
        path = f"edges[{i}]"
        eid = _expect(edge, "id", int, path)
        if eid in seen_ids:
            raise SchemaViolation(f"{path}.id", f"duplicate edge id {eid}")
        seen_ids.add(eid)
        src = _expect(edge, "src", int, path)
        dst = _expect(edge, "dst", int, path)
        for name, value in (("src", src), ("dst", dst)):
            if not 0 <= value < len(nodes):
                raise SchemaViolation(f"{path}.{name}", f"node id {value} out of range")
        if src == dst:
            raise SchemaViolation(f"{path}.dst", "self-loops are not allowed")
        if (src, dst) in seen_pairs:
            raise SchemaViolation(f"{path}", f"duplicate edge {src}->{dst}")
        seen_pairs.add((src, dst))
        _expect(edge, "broken", bool, path)
        _validate_model(_expect(edge, "model", dict, path), f"{path}.model")


def loads_graph(data: bytes | str) -> CointGraph:
    """Parse and validate a graph JSON document."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("$", f"not valid JSON: {exc}") from exc
    _validate_graph_obj(obj)
    g = graphmod.from_json_obj(obj)
    graphmod.audit_adjacency(g)
    return g


def load_graph(path) -> CointGraph:
    return loads_graph(Path(path).read_bytes())


def save_graph(g: CointGraph, path) -> None:
    Path(path).write_bytes(graphmod.export(g, graphmod.FORMAT_JSON))


def write_prices_csv(path, calendar: Sequence[date], series: dict[str, Sequence[float]]) -> None:
    """Write the long-format CSV: one row per (date, symbol) observation."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "symbol", "close"])
        for i, day in enumerate(calendar):
            for symbol in sorted(series):
                value = series[symbol][i]
                if value is None or (isinstance(value, float) and math.isnan(value)):
                    continue
                writer.writerow([day.isoformat(), symbol, repr(float(value))])
