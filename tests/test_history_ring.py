"""The onbreak refit history as a ring buffer, over runs longer than it.

TickStream keeps the trailing window in a fixed array whose oldest column
each published tick overwrites. Replays of more ticks than the window holds
must wrap the ring many times and still refit exactly as the list-based
oracle of test_refit_window does; a tick that fails must not advance the
window at all.
"""

import numpy as np
import pytest

from cointwatch import graph as graphmod
from cointwatch import synth
from cointwatch.alert import RECOMPUTE_ON_BREAK, AlertConfig, tick_loop
from cointwatch.coint import PriceSeries
from cointwatch.errors import InsufficientWindow

from conftest import planted_instance
from test_refit_window import oracle_run, stream_run

# (seed, clusters, cluster size, independents); independents are graph
# nodes without edges
PLANTED = [(210, 2, 4, 1), (211, 3, 3, 2)]


def long_replay(g, base, n_ticks, seed):
    """n_ticks jittered ticks with ~20% stale symbols, a shock every 9th
    tick, and one wired and one isolated symbol that no tick ever prices."""
    rng = np.random.default_rng(seed)
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    isolated = [n.symbol for n in g.nodes if n.symbol not in wired]
    never = {wired[-1], *isolated[:1]}
    ticks = []
    for t in range(n_ticks):
        tick = synth.jittered_tick(g, base, seed=seed * 1000 + t)
        if t % 9 == 4:
            symbol = wired[int(rng.integers(len(wired) - 1))]
            sigmas = float(rng.choice([2.0, 5.0, 9.0]))
            tick, _ = synth.shock_tick(g, tick, symbol, sigmas=sigmas)
        stale = rng.random(len(tick)) < 0.2
        ticks.append(
            {s: p for (s, p), gone in zip(tick.items(), stale) if not gone and s not in never}
        )
    return ticks


@pytest.mark.parametrize("instance", PLANTED, ids=lambda p: f"seed{p[0]}")
@pytest.mark.parametrize("latch", [False, True])
def test_ring_wraps_as_the_list_oracle(instance, latch):
    seed, clusters, size, independents = instance
    g, base, series = planted_instance(
        seed, n_clusters=clusters, cluster_size=size, n_independent=independents
    )
    length = 40
    history = [PriceSeries(p.symbol, p.values[-length:], p.window_id) for p in series]
    # a symbol the graph lacks rides along
    history.append(PriceSeries("EXTRA", history[0].values * 1.5, history[0].window_id))
    ticks = long_replay(g, base, 3 * length + 7, seed)
    config = AlertConfig(epsilon=0.5, latch_alerts=latch)

    got_lines, got_summaries, got_graph = stream_run(g, ticks, config, history)
    want_lines, want_summaries, want_graph = oracle_run(g, ticks, config, history)
    assert sum(s is not None for s in want_summaries) >= 5  # refits across the wraps
    assert got_lines == want_lines
    assert got_summaries == want_summaries
    assert graphmod.export(got_graph) == graphmod.export(want_graph)


def test_failed_tick_leaves_the_history_as_it_was():
    g, base, series = planted_instance(212, n_clusters=2, cluster_size=4)
    c0 = [n.symbol for n in g.nodes if n.symbol.startswith("C0")]
    c1 = [n.symbol for n in g.nodes if n.symbol.startswith("C1")]
    # the history lacks one cluster-0 symbol, so a shock there cannot refit
    history = [
        PriceSeries(p.symbol, p.values[-60:], p.window_id) for p in series if p.symbol != c0[1]
    ]
    failing, _ = synth.shock_tick(g, base, c0[0], sigmas=8.0)
    shock, expected = synth.shock_tick(g, base, c1[0], sigmas=8.0)
    assert expected
    calm = synth.jittered_tick(g, base, seed=1)
    config = AlertConfig(epsilon=0.5)

    stream = tick_loop(g, [base, failing, calm, shock], config, RECOMPUTE_ON_BREAK, history=history)
    got = [next(stream).to_json()]
    with pytest.raises(InsufficientWindow, match="tick for epoch 2 failed"):
        next(stream)
    got += [report.to_json() for report in stream]

    clean = tick_loop(g, [base, calm, shock], config, RECOMPUTE_ON_BREAK, history=history)
    assert got == [report.to_json() for report in clean]
    assert clean.last_recompute is not None and clean.last_recompute.refitted
    assert stream.last_recompute == clean.last_recompute
    assert graphmod.export(stream.graph) == graphmod.export(clean.graph)
