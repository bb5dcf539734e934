"""graph.export against the json.dumps document it replaced.

export writes every edge from a template. On a graph whose edge values
JSON can carry and load_graph reads (finite model floats, window ids that
are a str or a str subclass such as np.str_) the bytes must be those of
json.dumps(to_json_obj(g), sort_keys=True, separators=(",", ":")) and a
newline. A hand-built graph holding a non-finite model float or node
price, or a window id that is not a str, raises ValueError, where
json.dumps would write NaN, Infinity or a number load_graph refuses.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.graph import ALERTED, CLEAR, CointGraph, EdgeColumns, SymbolNode, export

from oracle import to_json_obj

FLOATS = ("beta0", "beta1", "resid_mean", "resid_std", "pvalue", "adf_stat")


def oracle_bytes(g):
    """The graph as json.dumps writes it."""
    text = json.dumps(to_json_obj(g), sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def outcome(fn, g):
    """The bytes on success, the error class on failure."""
    try:
        return fn(g)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def graph_of(nodes, edges, epoch):
    """A graph of SymbolNodes and (eid, src, dst, floats, window_id, broken)
    edge tuples, columns as given."""
    eid, src, dst, floats, window_id, broken = zip(*edges) if edges else ([],) * 6
    columns = EdgeColumns.of_lists(
        eid=eid, src=src, dst=dst, broken=broken, window_id=window_id,
        **{name: [f[k] for f in floats] for k, name in enumerate(FLOATS)},
    )
    return CointGraph(graphmod.NodeSnapshot.of_nodes(nodes), columns, epoch)


model_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7e308, -1.7e308, 1e-5, 1e16]),
)
prices = st.one_of(
    st.none(), st.integers(1, 2**53), st.floats(5e-324, 1.7e308), st.sampled_from([5e-324, 1.7e308])
)
epochs = st.one_of(st.sampled_from([0, 2**62]), st.integers(0, 2**62))
# symbols and window ids json must escape: quotes, backslashes, controls,
# and non-ASCII characters inside and outside the basic plane
texts = st.one_of(st.text(max_size=5), st.sampled_from(['"', "\\", "\n", "é", " ", "𝄞"]))
# a window id may also be a str subclass
window_texts = st.one_of(texts, texts.map(np.str_))
odd_floats = st.sampled_from([math.nan, math.inf, -math.inf])
odd_window_ids = st.sampled_from([None, 7, b"w"])


@st.composite
def histories(draw, epoch):
    """Maximal (first_epoch, count, state) runs ending at or before epoch."""
    runs, first = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        count = draw(st.integers(1, 3))
        if first + count - 1 > epoch:
            break
        state = draw(st.sampled_from([CLEAR, ALERTED]))
        runs.append((first, count, state))
        first += count + draw(st.integers(0, 2))
    return tuple(runs)


@st.composite
def graphs(draw):
    """A graph with at most one edge value export refuses; returns (graph,
    whether it holds one)."""
    epoch = draw(epochs)
    symbols = draw(st.lists(texts, max_size=5, unique=True))
    nodes = [
        SymbolNode(
            id=i,
            symbol=symbol,
            last_price=draw(prices),
            alert_state=draw(st.sampled_from([CLEAR, ALERTED])),
            alert_history=draw(histories(epoch)),
            last_update_epoch=draw(st.integers(-1, min(epoch, 5))),
        )
        for i, symbol in enumerate(symbols)
    ]
    window_ids = draw(st.lists(window_texts, min_size=1, max_size=3))
    edges = []
    if len(nodes) >= 2:
        ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6, unique=True))
        for eid in ids:
            src = draw(st.integers(0, len(nodes) - 1))
            dst = draw(st.integers(0, len(nodes) - 1))
            floats = tuple(draw(model_floats) for _ in FLOATS)
            edges.append((eid, src, dst, floats, draw(st.sampled_from(window_ids)),
                          draw(st.booleans())))
    odd = draw(st.sampled_from([None, "float", "window_id"])) if edges else None
    if odd is not None:
        at = draw(st.integers(0, len(edges) - 1))
        eid, src, dst, floats, window_id, broken = edges[at]
        if odd == "float":
            k = draw(st.integers(0, len(FLOATS) - 1))
            floats = floats[:k] + (draw(odd_floats),) + floats[k + 1:]
        else:
            window_id = draw(odd_window_ids)
        edges[at] = (eid, src, dst, floats, window_id, broken)
    return graph_of(nodes, edges, epoch), odd is not None


NODES = [SymbolNode(0, "Aé\"", 3, CLEAR, ((0, 2, CLEAR), (4, 1, ALERTED)), 4),
         SymbolNode(1, "B\\\n", 1.7e308, ALERTED, (), 2**62)]


@settings(max_examples=600, deadline=None)
@given(drawn=graphs())
# a graph with no edges
@example(drawn=(graph_of(NODES, [], 2**62), False))
@example(drawn=(graph_of([], [], 0), False))
# float extremes, a unicode window id, a broken edge
@example(drawn=(graph_of(NODES, [(0, 0, 1, (-0.0, 5e-324, 1.7e308, 1.0, 0.5, -3.0), "wé", True),
                                 (2**63 - 1, 1, 0, (1e16, 1e-5, 0.1, 2.0, 0.01, -2.5), "w", False)],
                          2**62), False))
# a non-finite model float put in through the columns
@example(drawn=(graph_of(NODES, [(0, 0, 1, (math.nan, 1.0, 0.0, 1.0, 0.5, -3.0), "w", False)], 0),
                True))
@example(drawn=(graph_of(NODES, [(0, 0, 1, (1.0, 1.0, 0.0, math.inf, 0.5, -3.0), "w", False)], 0),
                True))
# a window id that is not a str, and one that is a str subclass
@example(drawn=(graph_of(NODES, [(0, 0, 1, (1.0, 1.0, 0.0, 1.0, 0.5, -3.0), 7, False)], 0), True))
@example(drawn=(graph_of(NODES, [(0, 0, 1, (1.0, 1.0, 0.0, 1.0, 0.5, -3.0), np.str_("wé"),
                                  False)], 0), False))
def test_export_is_the_json_dumps_document(drawn):
    g, odd = drawn
    if odd:
        with pytest.raises(ValueError, match="^a (model float|window id) is not"):
            export(g)
    else:
        assert outcome(export, g) == outcome(oracle_bytes, g)


@pytest.mark.parametrize("price", [math.inf, -math.inf])
def test_a_node_price_json_cannot_carry_is_refused(price):
    nodes = [SymbolNode(0, "A", price, CLEAR, (), 0)]
    assert b"Infinity" in oracle_bytes(graph_of(nodes, [], 0))
    with pytest.raises(ValueError, match="not JSON compliant"):
        export(graph_of(nodes, [], 0))


def test_a_planted_graph_is_written_from_the_template():
    universe = synth.planted_universe(n_clusters=2, cluster_size=4, n_independent=2, seed=3)
    g = synth.planted_graph(synth.universe_series(universe.table).series, universe.clusters)
    assert export(g) == oracle_bytes(g)
