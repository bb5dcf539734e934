"""The column-backed ScanResult against the objects it replaced.

scan_pairs keeps its output as columns from the fit blocks to the graph:
ScanResult holds arrays and builds its PairResult/SkippedPair tuples on
first read, and build_graph slices the admitted rows out of those arrays.
The oracle is the object assembly those columns replaced: every block's
rows turned into objects as the block arrives, then put in canonical
order, in a frozen dataclass of two tuples. The tuples, equality, hash and
repr must match it exactly, and a graph built from the columns must have
the bytes of one built from the objects, errors included.

build_graph turns PairResults into the same columns before it checks and
admits them, so one path serves both inputs. Its oracle is the per-object
loop it replaced, kept below as build_graph_by_loop: on PairResults, and
on a ScanResult's .pairs, the path must give the loop's graph bytes or
its error class and message. The loop refuses an admitted result that
load_graph would refuse in a saved graph (refusal), as build_graph does,
so every graph build_graph returns saves to bytes load_graph reads back.
"""

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointwatch import coint, stats
from cointwatch.coint import (
    DIRECTION_BOTH,
    DIRECTION_SINGLE,
    CointModel,
    PairResult,
    SkippedPair,
    scan_pairs,
)
from cointwatch.errors import DuplicateEdge, UnknownSymbol
from cointwatch.graph import CointGraph, EdgeColumns, NodeSnapshot, SymbolNode, build_graph, export
from cointwatch.pipeline import loads_graph

from test_scan_kernel import universes


@dataclass(frozen=True)
class ScanResult:
    """The object-backed scan result the columns replaced."""

    pairs: tuple[PairResult, ...]
    skipped: tuple[SkippedPair, ...]

    @property
    def admitted(self) -> tuple[PairResult, ...]:
        return tuple(p for p in self.pairs if p.admitted)


def assemble_objects(parts, scan, epsilon) -> ScanResult:
    """Objects per block as it arrives, then one sort on symbol ranks."""
    symbols, window_id, m = scan.symbols, scan.window_id, len(scan.symbols)
    results, skipped, result_keys, skip_keys = [], [], [], []
    for src, dst, fields, ok, reasons in parts:
        key = scan.rank[src] * m + scan.rank[dst]
        admitted = (fields[:, 4] < epsilon) & (fields[:, 3] > 0.0)
        results.extend(
            PairResult(symbols[i], symbols[j], CointModel(*model, window_id), good)
            for i, j, model, good in zip(
                src[ok].tolist(), dst[ok].tolist(), fields[ok].tolist(), admitted[ok].tolist()
            )
        )
        failed = ~ok
        skipped.extend(
            SkippedPair(symbols[i], symbols[j], reason)
            for i, j, reason in zip(src[failed].tolist(), dst[failed].tolist(), reasons)
        )
        result_keys.append(key[ok])
        skip_keys.append(key[failed])

    def in_order(items, keys):
        return tuple(map(items.__getitem__, np.argsort(np.concatenate(keys)).tolist()))

    return ScanResult(in_order(results, result_keys), in_order(skipped, skip_keys))


def scan_with_oracle(universe, direction, workers, epsilon=0.05):
    """scan_pairs' column result, and the object result of the same blocks."""
    oracles = []
    real = coint._assemble

    def both(parts, scan, eps):
        parts = list(parts)
        oracles.append(assemble_objects(parts, scan, eps))
        return real(parts, scan, eps)

    with mock.patch.object(coint, "_assemble", both), \
            mock.patch.object(coint, "_POOL_MIN_FITS", 0 if workers > 1 else coint._POOL_MIN_FITS):
        result = scan_pairs(universe, epsilon, direction, workers=workers)
    (oracle,) = oracles
    return result, oracle


def graph_bytes(results, epsilon, symbols) -> bytes:
    return export(build_graph(results, epsilon, symbols))


def columns_of(pairs, skipped=(), window_id="w") -> coint.ScanResult:
    """A column-backed ScanResult of these results, in the order given."""
    index = {}

    def ids(names):
        return np.array([index.setdefault(s, len(index)) for s in names], dtype=np.intp)

    assert all(p.model.window_id == window_id for p in pairs)
    src, dst = ids(p.src_symbol for p in pairs), ids(p.dst_symbol for p in pairs)
    skipped_src = ids(s.src_symbol for s in skipped)
    skipped_dst = ids(s.dst_symbol for s in skipped)
    fields = [[getattr(p.model, name) for p in pairs] for name in coint.ScanResult.FIELDS]
    return coint.ScanResult(
        symbols=tuple(index), src=src, dst=dst,
        fields=np.array(fields, dtype=np.float64).T, window_id=window_id,
        admit=np.array([p.admitted for p in pairs], dtype=bool),
        skipped_src=skipped_src, skipped_dst=skipped_dst,
        reasons=tuple(s.reason for s in skipped),
    )


def assert_equals_objects(result, oracle):
    assert result.pairs == oracle.pairs
    assert result.skipped == oracle.skipped
    assert result.admitted == oracle.admitted
    assert repr(result) == repr(oracle)
    assert hash(result) == hash(oracle)
    window_id = oracle.pairs[0].model.window_id if oracle.pairs else "w"
    rebuilt = columns_of(oracle.pairs, oracle.skipped, window_id)
    assert result == rebuilt and not result != rebuilt
    assert (rebuilt.pairs, rebuilt.skipped) == (oracle.pairs, oracle.skipped)


@settings(max_examples=25, deadline=None)
@given(
    universe=universes(),
    direction=st.sampled_from([DIRECTION_BOTH, DIRECTION_SINGLE]),
    workers=st.sampled_from([1, 2]),
    epsilon=st.sampled_from([0.05, 0.5]),
)
def test_columns_equal_the_objects(universe, direction, workers, epsilon):
    result, oracle = scan_with_oracle(universe, direction, workers)
    assert_equals_objects(result, oracle)
    # build_graph re-thresholds: the scan's own epsilon need not be the graph's
    symbols = [p.symbol for p in universe]
    want = graph_bytes(oracle.pairs, epsilon, symbols)
    assert graph_bytes(result, epsilon, symbols) == want
    assert graph_bytes(result.pairs, epsilon, symbols) == want
    # a graph over a wider universe, in another symbol order
    wider = ["ZZ_EXTRA"] + symbols[::-1]
    assert graph_bytes(result, epsilon, wider) == graph_bytes(oracle.pairs, epsilon, wider)


def test_an_unequal_scan_is_unequal():
    universe = [coint.PriceSeries(f"W{k}", 200.0 + np.cumsum(w), "w")
                for k, w in enumerate(np.random.default_rng(3).standard_normal((4, 120)))]
    a, b = scan_pairs(universe, 0.05), scan_pairs(universe, 0.5)
    assert a.pairs != b.pairs  # admission differs
    assert a != b and not a == b
    assert a == scan_pairs(universe[::-1], 0.05)  # same pairs, other symbol indices
    assert a.__eq__(a.pairs) is NotImplemented


# -- build_graph on columns against build_graph on PairResults ----------------


def outcome(fn, *args):
    try:
        return export(fn(*args)), None
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return None, (type(exc), str(exc))


NAMES = ["A", "B", "C", "D", "b", "AA"]
WINDOWS = ["w", "v", ""]
FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
ODD_FLOATS = [math.nan, math.inf, -math.inf]
SPREADS = [0.0, -1.0, 0.5, 2.0]
PVALUES = [1e-6, 0.01, 0.05, 0.2, 1.0 - 1e-6]
# model fields as floats, ints (within float64's range) or np.float64s
NUMBERS = st.one_of(FLOATS, st.integers(-(2**64), 2**64), FLOATS.map(np.float64))
WIDE_SPREADS = SPREADS + [0, -1, 2, np.float64(0.5)]
WIDE_PVALUES = PVALUES + [0, 1, np.float64(0.05)]


@st.composite
def models(draw, windows=st.just("w"), number=FLOATS, spreads=SPREADS, pvalues=PVALUES):
    return CointModel(
        draw(number), draw(number), draw(number),
        draw(st.sampled_from(spreads)), draw(st.sampled_from(pvalues)),
        draw(number), draw(windows),
    )


@st.composite
def result_lists(draw):
    """PairResults in any order over a few symbols, now and then repeating
    a pair or naming a symbol outside the universe; models of any sign,
    spread and p-value."""
    n = draw(st.integers(0, 12))
    pair = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES))
    out = []
    for _ in range(n):
        src, dst = draw(pair)
        out.append(PairResult(src, dst, draw(models()), draw(st.booleans())))
    return out


def scan_of(symbols, src, dst, fields, window_id="w") -> coint.ScanResult:
    """A ScanResult of these columns as given, its symbol table included."""
    fields = np.array(fields, dtype=np.float64).reshape(len(src), len(coint.ScanResult.FIELDS))
    return coint.ScanResult(
        symbols=tuple(symbols), src=np.array(src, dtype=np.intp),
        dst=np.array(dst, dtype=np.intp), fields=fields, window_id=window_id,
        admit=np.zeros(len(src), dtype=bool), skipped_src=np.zeros(0, dtype=np.intp),
        skipped_dst=np.zeros(0, dtype=np.intp), reasons=(),
    )


@st.composite
def scans(draw, name):
    """ScanResults whose symbol tables may name a symbol twice, with rows in
    any order, now and then repeating a pair of indices."""
    symbols = draw(st.lists(name, min_size=1, max_size=6))
    index = st.integers(0, len(symbols) - 1)
    rows = draw(st.lists(st.tuples(index, index), max_size=12))
    fields = [
        [draw(FLOATS), draw(FLOATS), draw(FLOATS),
         draw(st.sampled_from(SPREADS)), draw(st.sampled_from(PVALUES)), draw(FLOATS)]
        for _ in rows
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):  # a value load_graph refuses
        row, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 5))
        fields[row][k] = draw(st.sampled_from([*ODD_FLOATS, -0.5]))
    return scan_of(symbols, [a for a, _ in rows], [b for _, b in rows], fields,
                   draw(st.sampled_from(WINDOWS)))


def with_odd_models(draw, results):
    """The results with up to two model fields made a value load_graph
    refuses (a float that is not finite, a pvalue of -0.5, a window id
    that is not a str) or a str subclass window id, which it reads."""
    results = list(results)
    for _ in range(draw(st.integers(0, 2)) if results else 0):
        at = draw(st.integers(0, len(results) - 1))
        name = draw(st.sampled_from([*coint.ScanResult.FIELDS, "window_id"]))
        if name == "window_id":
            value = draw(st.sampled_from([7, None, np.str_("w")]))
        else:
            value = draw(st.sampled_from(ODD_FLOATS + [-0.5] * (name == "pvalue")))
        r = results[at]
        results[at] = replace(r, model=replace(r.model, **{name: value}))
    return results


def refusal(r: PairResult) -> str | None:
    """Why load_graph would refuse the edge of an admitted result, or None:
    the first of a self-pair, a model float that is not finite, a pvalue
    outside [0, 1] and a window id that is not a str."""
    m = r.model
    if r.src_symbol == r.dst_symbol:
        return "is a self-pair"
    if not all(math.isfinite(getattr(m, name)) for name in coint.ScanResult.FIELDS):
        return "has a model float that is not finite"
    if not 0 <= m.pvalue <= 1:
        return "has a pvalue outside [0, 1]"
    if not isinstance(m.window_id, str):
        return "has a window id that is not a str"
    return None


def build_graph_by_loop(results, epsilon, symbols) -> CointGraph:
    """build_graph as it was for PairResults: a pass over the objects that
    checks each in turn, then lists of the admitted rows' fields."""
    symbols = list(symbols)
    if len(set(symbols)) != len(symbols):
        raise ValueError("universe contains duplicate symbols")
    symbol_ids = {s: i for i, s in enumerate(symbols)}
    nodes = tuple(SymbolNode(id=i, symbol=s) for i, s in enumerate(symbols))
    seen: set[tuple[str, str]] = set()
    admitted: list[PairResult] = []
    for r in results:
        key = (r.src_symbol, r.dst_symbol)
        if key in seen:
            raise DuplicateEdge(f"pair {key[0]}->{key[1]} appears more than once")
        seen.add(key)
        if r.src_symbol not in symbol_ids:
            raise UnknownSymbol(f"result references unknown symbol {r.src_symbol!r}")
        if r.dst_symbol not in symbol_ids:
            raise UnknownSymbol(f"result references unknown symbol {r.dst_symbol!r}")
        if r.model.pvalue < epsilon and r.model.resid_std > 0.0:
            reason = refusal(r)
            if reason is not None:
                raise ValueError(f"pair {key[0]}->{key[1]} {reason}")
            admitted.append(r)

    admitted.sort(key=lambda r: (r.src_symbol, r.dst_symbol))
    models = [r.model for r in admitted]
    columns = EdgeColumns.of_lists(
        eid=range(len(admitted)),
        src=[symbol_ids[r.src_symbol] for r in admitted],
        dst=[symbol_ids[r.dst_symbol] for r in admitted],
        broken=[False] * len(admitted),
        **{name: [getattr(m, name) for m in models]
           for name in (*coint.ScanResult.FIELDS, "window_id")},
    )
    return CointGraph(NodeSnapshot.of_nodes(nodes), columns, 0)


MODEL_FLOATS = [0.0, 1.0, 0.0, 1.0, 0.01, -5.0]
MODEL = CointModel(*MODEL_FLOATS, "w")
UNIVERSES = st.lists(st.sampled_from(NAMES[:5]), unique=True, max_size=5)
EPSILONS = st.sampled_from([0.0, 0.05, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(results=result_lists(), universe=UNIVERSES, epsilon=EPSILONS)
@example(results=[], universe=[], epsilon=0.05)
def test_build_graph_on_columns_matches_pair_results(results, universe, epsilon):
    assert outcome(build_graph, columns_of(results), epsilon, universe) == outcome(
        build_graph, results, epsilon, universe
    )


@st.composite
def loop_cases(draw):
    """A universe, and a ScanResult or PairResults mostly over its symbols.
    PairResults' models mix floats, ints and np.float64s, and their window
    ids differ from row to row; now and then a row repeats a pair, names a
    symbol outside the universe or twice (a self-pair), or holds a value
    load_graph refuses."""
    universe = draw(UNIVERSES)
    name = st.sampled_from(universe * 8 + ["AA"])  # AA is in no universe
    if draw(st.booleans()):
        return draw(scans(name)), universe
    pairs = draw(st.lists(st.tuples(name, name), unique=True, max_size=12))
    if pairs and draw(st.sampled_from([False, False, True])):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    model = models(st.sampled_from(WINDOWS), NUMBERS, WIDE_SPREADS, WIDE_PVALUES)
    results = [PairResult(a, b, draw(model), draw(st.booleans())) for a, b in pairs]
    return with_odd_models(draw, results), universe


@settings(max_examples=300, deadline=None)
@given(case=loop_cases(), epsilon=EPSILONS)
@example(case=(scan_of(("A", "A", "B"), [0, 1], [2, 2], [MODEL_FLOATS] * 2), ["A", "B"]),
         epsilon=0.05)
def test_build_graph_matches_the_object_loop(case, epsilon):
    results, universe = case
    pairs = results.pairs if isinstance(results, coint.ScanResult) else results
    assert outcome(build_graph, results, epsilon, universe) == outcome(
        build_graph_by_loop, pairs, epsilon, universe
    )


@settings(max_examples=200, deadline=None)
@given(case=loop_cases(), epsilon=EPSILONS)
def test_a_built_graph_saves_to_bytes_load_graph_reads_back(case, epsilon):
    results, universe = case
    try:
        g = build_graph(results, epsilon, universe)
    except (ValueError, DuplicateEdge, UnknownSymbol):
        return
    data = export(g)
    assert export(loads_graph(data)) == data


def result(src, dst, **model):
    return PairResult(src, dst, replace(MODEL, **model), True)


def test_a_str_subclass_window_id_is_kept():
    g = build_graph([result("A", "B", window_id=np.str_("w"))], 0.05, ["A", "B"])
    data = export(g)
    assert export(loads_graph(data)) == data == export(build_graph([result("A", "B")], 0.05,
                                                                   ["A", "B"]))


def as_results_and_columns(pairs):
    return results_and_columns([PairResult(a, b, MODEL, True) for a, b in pairs])


def results_and_columns(results):
    """The results, and their columns where all share window id "w"."""
    if all(r.model.window_id == "w" for r in results):
        return [results, columns_of(results)]
    return [results]


@pytest.mark.parametrize(
    "inputs, error",
    [
        # the first bad result in the order given decides; a repeat is named first
        (
            as_results_and_columns([("A", "B"), ("A", "X"), ("A", "B")]),
            UnknownSymbol("result references unknown symbol 'X'"),
        ),
        (
            as_results_and_columns([("A", "B"), ("X", "Y")]),
            UnknownSymbol("result references unknown symbol 'X'"),
        ),
        (
            as_results_and_columns([("A", "B"), ("B", "A"), ("A", "B"), ("X", "A")]),
            DuplicateEdge("pair A->B appears more than once"),
        ),
        (
            as_results_and_columns([("X", "Y"), ("X", "Y")]),
            UnknownSymbol("result references unknown symbol 'X'"),
        ),
        # a scan whose symbol table names A twice: its two rows are one pair
        (
            [scan_of(("A", "A", "B"), [0, 1], [2, 2], [MODEL_FLOATS] * 2)],
            DuplicateEdge("pair A->B appears more than once"),
        ),
        # an admitted result load_graph would refuse as an edge
        (as_results_and_columns([("A", "A")]), ValueError("pair A->A is a self-pair")),
        *(
            (results_and_columns([result("A", "B", **{name: value})]),
             ValueError("pair A->B has a model float that is not finite"))
            for name, value in [("beta0", math.nan), ("adf_stat", math.nan),
                                ("beta1", math.inf), ("resid_std", math.inf)]
        ),
        (
            results_and_columns([result("A", "B", pvalue=-0.5)]),
            ValueError("pair A->B has a pvalue outside [0, 1]"),
        ),
        (
            results_and_columns([result("A", "B", window_id=7)]),
            ValueError("pair A->B has a window id that is not a str"),
        ),
        # refused, repeated and unknown results alike: the first in the order given
        (
            results_and_columns([result("B", "A", pvalue=-0.5), result("A", "B", beta0=math.nan),
                                 result("B", "A")]),
            ValueError("pair B->A has a pvalue outside [0, 1]"),
        ),
        (
            results_and_columns([result("A", "B"), result("A", "B"), result("A", "A")]),
            DuplicateEdge("pair A->B appears more than once"),
        ),
        (
            results_and_columns([result("X", "X"), result("A", "A")]),
            UnknownSymbol("result references unknown symbol 'X'"),
        ),
        # a result that is not admitted is never refused
        (
            results_and_columns([result("A", "A", pvalue=0.5),
                                 result("A", "B", beta0=math.nan, pvalue=math.nan),
                                 result("B", "A", window_id=7)]),
            ValueError("pair B->A has a window id that is not a str"),
        ),
    ],
)
def test_build_graph_names_the_first_bad_result(inputs, error):
    for given_as in inputs:
        assert outcome(build_graph, given_as, 0.05, ["A", "B"]) == (
            None, (type(error), str(error))
        )


# -- bulk p-values -------------------------------------------------------------

ULP_EDGES = [
    np.nextafter(t, direction)
    for t in (stats._TAU_MIN, stats._TAU_MAX, stats._TAU_STAR)
    for direction in (-math.inf, 0.0, math.inf)
] + [stats._TAU_MIN, stats._TAU_MAX, stats._TAU_STAR]
FAR = [-1e300, -1e6, -30.0, -0.0, 0.0, 30.0, 1e6, 1e300, -5e-324, 5e-324]


def assert_bits_equal(statistics):
    statistics = np.array(statistics, dtype=np.float64)
    got = stats.adf_pvalues(statistics)
    want = [stats.adf_pvalue(t) for t in statistics.tolist()]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_bulk_pvalues_at_the_clip_and_switch_points():
    edges = ULP_EDGES + FAR
    assert len(edges) >= stats._BULK_MIN  # the numpy path
    assert_bits_equal(edges)
    for t in edges:  # one at a time: the per-entry path
        assert_bits_equal([t])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-25.0, 5.0),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(ULP_EDGES + FAR),
        ),
        max_size=3 * stats._BULK_MIN,
    )
)
def test_bulk_pvalues_equal_adf_pvalue_bit_for_bit(statistics):
    assert_bits_equal(statistics)


@pytest.mark.parametrize("size", [1, stats._BULK_MIN])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bulk_pvalues_reject_a_non_finite_statistic(size, bad):
    statistics = np.full(size, -3.0)
    statistics[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        stats.adf_pvalues(statistics)
