"""graph.tick_prices against the per-symbol loop it replaced, and
graph.update_prices against the SymbolNode loop it replaced.

tick_prices checks a tick of known symbols and plain prices in bulk and
walks the entries one by one only when that fails. The oracle is the
per-symbol loop: whatever the tick holds, both must return the same ids
and price bits, or raise the same error class with the same message.

update_prices applies a tick as TickStream does (NodeSnapshot.priced);
oracle.update_prices rebuilds the SymbolNode tuple node by node. Chained
over several ticks, from built, loaded and stream-published versions, both
must export the same bytes or raise the same error, and tick_kernel must
read an update_prices version as it is.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import AlertConfig, tick_kernel, tick_loop
from cointwatch.errors import NonPositivePrice, UnknownSymbol
from cointwatch.graph import ALERTED, tick_prices, update_prices
from cointwatch.pipeline import loads_graph

import oracle
from conftest import planted_instance, random_graph

SYMBOL_IDS = {f"S{i:02d}": i for i in range(12)}


def oracle_tick_prices(symbol_ids, tick):
    """The per-symbol loop: validate each entry in tick order."""
    ids, prices = [], []
    for symbol, price in tick.items():
        nid = symbol_ids.get(symbol)
        if nid is None:
            raise UnknownSymbol(f"tick references unknown symbol {symbol!r}")
        if isinstance(price, bool) or not (
            isinstance(price, (int, float)) and math.isfinite(price) and price > 0
        ):
            raise NonPositivePrice(f"{symbol}: price {price!r} is not a positive finite number")
        ids.append(nid)
        prices.append(float(price))
    return ids, prices


def outcome(fn, tick):
    """(ids, price bits) on success, (error class, message) on failure."""
    try:
        ids, prices = fn(SYMBOL_IDS, tick)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    prices = np.asarray(prices, dtype=np.float64)
    return list(ids), prices.view(np.int64).tolist()


def assert_same(tick):
    want = outcome(oracle_tick_prices, tick)
    assert outcome(tick_prices, tick) == want
    if not isinstance(want[0], type):
        ids, prices = tick_prices(SYMBOL_IDS, tick)
        assert ids.dtype == np.intp and prices.dtype == np.float64
    return want


good_prices = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=1, max_value=2**80),
    st.floats(min_value=1e-3, max_value=1e6).map(np.float64),
)
any_prices = st.one_of(
    good_prices,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.just(10**400),
    st.booleans(),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.just("1.5"),
    st.none(),
)
known = st.sampled_from(sorted(SYMBOL_IDS))
symbols = st.one_of(known, known, known, st.sampled_from(["NOPE", "ZZ", ""]))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(known, good_prices, max_size=12))
def test_good_ticks_match_the_loop(tick):
    assert_same(tick)


@settings(max_examples=600, deadline=None)
@given(st.dictionaries(symbols, any_prices, max_size=8))
def test_any_tick_matches_the_loop(tick):
    assert_same(tick)


BAD = {
    "True": True,
    "np.int64": np.int64(3),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0.0,
    "int zero": 0,
    "negative": -1.5,
    "10**400": 10**400,
    "str": "1.5",
    "None": None,
}


@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("unknown_first", [True, False])
def test_first_bad_entry_in_tick_order_raises(bad, unknown_first):
    bad_entry = [("S03", bad)]
    unknown = [("NOPE", 1.0)]
    entries = [("S00", 1.5)] + (unknown + bad_entry if unknown_first else bad_entry + unknown)
    cls, message = assert_same(dict(entries + [("S05", 2)]))
    if unknown_first:
        assert (cls, message) == (UnknownSymbol, "tick references unknown symbol 'NOPE'")
    else:
        assert cls in (NonPositivePrice, OverflowError)


def test_numpy_and_int_prices_are_accepted():
    ids, prices = assert_same({"S04": np.float64(2.5), "S01": 7, "S09": 2**70 + 1})
    assert ids == [4, 1, 9]


def test_empty_tick():
    ids, prices = tick_prices(SYMBOL_IDS, {})
    assert ids.dtype == np.intp and ids.shape == (0,)
    assert prices.dtype == np.float64 and prices.shape == (0,)
    assert_same({})


def test_update_prices_stores_python_floats():
    g = random_graph(3, n_nodes=4, n_edges=5)
    g = update_prices(g, {"S00": 3, "S02": np.float64(1.25), "S03": 4.5})
    prices = [n.last_price for n in g.nodes]
    assert prices == [3.0, None, 1.25, 4.5]
    assert [type(p) for p in prices] == [float, type(None), float, float]


# -- update_prices -------------------------------------------------------------


@pytest.fixture(scope="module")
def starts():
    """{name: (graph, in-band base tick)}: a planted graph as built, as a
    file may hold it, and as a TickStream published it."""
    built, base, _ = planted_instance(310, n_clusters=2, cluster_size=3, n_independent=2)
    obj = json.loads(graphmod.export(built))
    obj["epoch"] = 6
    nodes = obj["nodes"]
    # an int price, fresh at the graph epoch, on an alerted node with history
    nodes[0].update(last_price=7, last_update_epoch=6, alert_state=ALERTED,
                    alert_history=[[2, 3, "clear"], [5, 2, "alerted"]])
    # no price at a set epoch
    nodes[1].update(last_price=None, last_update_epoch=4)
    # an int price never updated by a tick
    nodes[-1].update(last_price=12, last_update_epoch=-1)
    loaded = loads_graph(json.dumps(obj))
    ticks = [synth.jittered_tick(built, base, seed=t) for t in range(3)]
    ticks[1], _ = synth.shock_tick(built, ticks[1], built.nodes[0].symbol, sigmas=8.0)
    stream = tick_loop(built, ticks, AlertConfig(latch_alerts=True))
    for _ in stream:
        pass
    return {"built": (built, base), "loaded": (loaded, base), "published": (stream.graph, base)}


def priced(fn, g, tick):
    """(graph, None) on success, (None, (error class, message)) on failure."""
    try:
        return fn(g, tick), None
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return None, (type(exc), str(exc))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    start=st.sampled_from(["built", "loaded", "published"]),
    latch=st.booleans(),
)
def test_update_prices_matches_the_node_loop(starts, data, start, latch):
    g, base = starts[start]
    symbols = [n.symbol for n in g.nodes]
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    config = AlertConfig(latch_alerts=latch)
    got = want = g
    for _ in range(data.draw(st.integers(1, 4))):
        tick = dict(base)
        for symbol in data.draw(st.lists(st.sampled_from(wired), max_size=2, unique=True)):
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=data.draw(st.floats(0.0, 8.0)))
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols)))
        ints = data.draw(st.sets(st.sampled_from(symbols)))
        tick = {s: math.ceil(p) if s in ints else p for s, p in tick.items() if s not in stale}
        if data.draw(st.integers(0, 4)) == 4:
            symbol = data.draw(st.sampled_from([*symbols, "NOPE"]))
            tick[symbol] = data.draw(st.sampled_from(list(BAD.values())))
        next_got, got_error = priced(update_prices, got, tick)
        next_want, want_error = priced(oracle.update_prices, want, tick)
        assert got_error == want_error
        if got_error is not None:
            continue
        got, want = next_got, next_want
        assert graphmod.export(got) == graphmod.export(want)

        # the kernel reads the version update_prices made as it is
        report, ids, flags = tick_kernel(got, config)
        states, expected = oracle.reference_tick(want, config)
        assert report.to_json() == expected.to_json()
        evaluated = [s.node for s in states if s.evaluated]
        assert ids.tolist() == [n.id for n in evaluated]
        assert flags.tolist() == [n.alert_state == ALERTED for n in evaluated]
