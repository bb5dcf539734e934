"""The refit window of tick_loop(..., "onbreak") against a list-based oracle.

The oracle keeps one Python list per history symbol (graph symbols and the
rest alike), appends each node's last price after every tick (a stale node
carries its price forward, a node never priced repeats its previous value),
trims to the history length, and refits over the full window of every
symbol (oracle.replay). The ticks themselves run through reference_tick.
tick_loop keeps the history as one array and builds series only for
broken-edge endpoints; the reports, the refit outcomes and the final graph
must be the same, byte for byte.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import RECOMPUTE_OFF, RECOMPUTE_ON_BREAK, AlertConfig, tick_loop
from cointwatch.coint import PriceSeries
from cointwatch.errors import InsufficientWindow, MisalignedCalendar

import oracle
from conftest import planted_instance

# (seed, clusters, cluster size, independents); independents are graph
# nodes without edges
PLANTED = [(200, 2, 4, 0), (201, 3, 3, 2), (202, 2, 5, 1)]


def oracle_run(g, ticks, config, history):
    """Replay ticks with a list-based trailing window and full-window
    refits; returns (report lines, last_recompute per tick, final graph)."""
    lines, summaries = [], []
    for report, summary, g in oracle.replay(g, ticks, config, history):
        lines.append(report.to_json())
        summaries.append(summary)
    return lines, summaries, g


def stream_run(g, ticks, config, history):
    stream = tick_loop(g, ticks, config, RECOMPUTE_ON_BREAK, history=history)
    lines, summaries = [], []
    for report in stream:
        lines.append(report.to_json())
        summaries.append(stream.last_recompute)
        graphmod.audit_adjacency(stream.graph)
    return lines, summaries, stream.graph


@pytest.fixture(scope="module")
def planted():
    return [
        planted_instance(seed, n_clusters=c, cluster_size=s, n_independent=k)
        for seed, c, s, k in PLANTED
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    epsilon=st.sampled_from([0.05, 0.5]),
    latch=st.booleans(),
    length=st.sampled_from([40, 120, 250]),
    extras=st.integers(0, 2),
)
def test_refit_window_matches_list_oracle(planted, data, epsilon, latch, length, extras):
    g, base, series = data.draw(st.sampled_from(planted))
    history = [PriceSeries(p.symbol, p.values[-length:], p.window_id) for p in series]
    # symbols the graph lacks ride along in the history
    history += [
        PriceSeries(f"EXTRA{k}", history[k].values * 1.5, history[k].window_id)
        for k in range(extras)
    ]
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    symbols = [n.symbol for n in g.nodes]
    ticks = []
    for _ in range(data.draw(st.integers(1, 5))):
        tick = dict(base)
        for symbol in data.draw(st.lists(st.sampled_from(wired), max_size=2, unique=True)):
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=data.draw(st.floats(0.0, 12.0)))
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols) // 2))
        ticks.append({s: p for s, p in tick.items() if s not in stale})
    config = AlertConfig(epsilon=epsilon, latch_alerts=latch)

    got_lines, got_summaries, got_graph = stream_run(g, ticks, config, history)
    want_lines, want_summaries, want_graph = oracle_run(g, ticks, config, history)
    assert got_lines == want_lines
    assert got_summaries == want_summaries
    assert graphmod.export(got_graph) == graphmod.export(want_graph)


def test_broken_endpoint_missing_from_history(planted):
    g, base, series = planted[0]
    shocked, expected = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=8.0)
    assert expected
    edge = g.edges[expected[0]]
    missing = g.nodes[edge.dst].symbol
    history = [p for p in series if p.symbol != missing]
    message = f"window does not cover symbol {missing!r}"
    with pytest.raises(InsufficientWindow, match=re.escape(message)):
        oracle_run(g, [shocked], AlertConfig(), history)
    with pytest.raises(
        InsufficientWindow, match=re.escape(f"tick for epoch 1 failed: {message}")
    ):
        list(tick_loop(g, [shocked], AlertConfig(), RECOMPUTE_ON_BREAK, history=history))


def misaligned(series, how):
    short = series[1]
    if how == "length":
        bad = PriceSeries(short.symbol, short.values[:-9], short.window_id)
    else:
        bad = PriceSeries(short.symbol, short.values, "elsewhere")
    return [series[0], bad, *series[2:]], short.symbol


@pytest.mark.parametrize("how", ["length", "window_id"])
def test_misaligned_history_rejected_under_onbreak(planted, how):
    g, base, series = planted[0]
    history, symbol = misaligned(series, how)
    with pytest.raises(MisalignedCalendar, match=re.escape(symbol)):
        tick_loop(g, [base], AlertConfig(), RECOMPUTE_ON_BREAK, history=history)


@pytest.mark.parametrize("how", ["length", "window_id"])
def test_history_ignored_with_recompute_off(planted, how):
    g, base, series = planted[0]
    history, _ = misaligned(series, how)
    shocked, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=8.0)
    ticks = [base, shocked, base]
    stream = tick_loop(g, ticks, AlertConfig(), RECOMPUTE_OFF, history=history)
    got = [r.to_json() for r in stream]
    plain = tick_loop(g, ticks, AlertConfig(), RECOMPUTE_OFF)
    assert got == [r.to_json() for r in plain]
    assert '"broken_edges":[]' not in got[1]
