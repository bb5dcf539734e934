"""Run-length alert histories: what runs hold, and how the loader reads them.

A node's alert_history is a tuple of maximal (first_epoch, count, state)
runs; graph JSON writes each as [first_epoch, count, state] and still reads
the [epoch, state] entries of earlier files, alone or mixed with runs.
Runs are checked by their ends and never expanded, so a run of 2**61
epochs loads at once, and a run past the graph epoch fails at once.
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cointwatch import synth
from cointwatch.alert import AlertConfig, tick_loop
from cointwatch.errors import SchemaViolation
from cointwatch.graph import ALERTED, CLEAR, export
from cointwatch.pipeline import loads_graph

import oracle
from conftest import planted_instance, random_graph


def document(history, epoch=5):
    """A four-node graph at epoch whose node 1 holds history."""
    obj = json.loads(export(random_graph(2, n_nodes=4, n_edges=3), "json"))
    obj["epoch"] = epoch
    obj["nodes"][1]["alert_history"] = history
    return json.dumps(obj)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "history, k, message",
    [
        ([[1, 0, "clear"]], 0, "count must be at least 1, got 0"),
        ([[1, -2, "clear"]], 0, "count must be at least 1, got -2"),
        ([[1, True, "clear"]], 0, "expected [first_epoch, count, state]"),
        ([[1, 2.0, "clear"]], 0, "expected [first_epoch, count, state]"),
        ([[1, "clear"], [True, 2, "clear"]], 1, "expected [first_epoch, count, state]"),
        ([[1, 2, "panic"]], 0, "expected [first_epoch, count, state]"),
        ([[1, 3, "clear"], [3, 1, "alerted"]], 1, "epochs must be strictly increasing"),
        ([[1, 3, "clear"], [2, "alerted"]], 1, "epochs must be strictly increasing"),
        ([[2, "clear"], [2, 2, "alerted"]], 1, "epochs must be strictly increasing"),
        ([[1, 1, "clear"], [0, 1, "clear"]], 1, "epochs must be strictly increasing"),
        ([[2, 5, "clear"]], 0, "epoch 6 is after graph epoch 5"),
        ([[1, "clear"], [3, 2, "alerted"], [5, 2, "clear"]], 2, "epoch 6 is after graph epoch 5"),
        ([[0, 2**62, "clear"]], 0, f"epoch {2**62 - 1} is after graph epoch 5"),
        # an item that is not a 3-item list is read as an [epoch, state] entry
        ([[1, 2, 3, "clear"]], 0, "expected [epoch, state]"),
        ([[1, 2, "clear"], ["clear"]], 1, "expected [epoch, state]"),
        ([[1, 2, "clear"], {"first": 4}], 1, "expected [epoch, state]"),
    ],
)
def test_a_bad_run_names_its_item(history, k, message):
    with pytest.raises(SchemaViolation) as err:
        loads_graph(document(history))
    path = f"nodes[1].alert_history[{k}]"
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_a_long_run_loads_without_expanding():
    data = document([[1, 2**61, "clear"], [2**61 + 1, 3, "alerted"]], epoch=2**62)
    g = loads_graph(data)
    assert g.nodes[1].alert_history == ((1, 2**61, CLEAR), (2**61 + 1, 3, ALERTED))
    assert export(g, "json").decode() == canonical(json.loads(data))


def test_entries_and_runs_merge_into_maximal_runs():
    history = [[1, "clear"], [2, 3, "clear"], [5, "clear"], [6, "alerted"], [7, 1, "alerted"],
               [9, "clear"], [10, 1, "clear"]]
    g = loads_graph(document(history, epoch=10))
    runs = ((1, 5, CLEAR), (6, 2, ALERTED), (9, 2, CLEAR))
    assert g.nodes[1].alert_history == runs
    obj = json.loads(document([list(run) for run in runs], epoch=10))
    assert export(g, "json").decode() == canonical(obj)


# -- tick streams -------------------------------------------------------------


@pytest.fixture(scope="module")
def instances():
    shapes = ((41, 3), (42, 4))
    return [planted_instance(seed, n_clusters=2, cluster_size=c)[:2] for seed, c in shapes]


def reference_loop(g, ticks, config):
    """The run through reference_tick, node by node."""
    for _, _, g in oracle.replay(g, ticks, config):
        pass
    return g


def entries_document(g, entries) -> str:
    """g's export with each node's history written as [epoch, state] entries."""
    obj = json.loads(export(g, "json"))
    for node, history in zip(obj["nodes"], entries):
        node["alert_history"] = [list(entry) for entry in history]
    return canonical(obj)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), latch=st.booleans())
def test_runs_encode_every_evaluated_epoch(instances, data, latch):
    g, base = data.draw(st.sampled_from(instances))
    symbols = sorted(base)
    ticks = []
    for t in range(data.draw(st.integers(1, 10))):
        tick = synth.jittered_tick(g, base, seed=t)
        if data.draw(st.booleans()):
            tick, _ = synth.shock_tick(g, tick, data.draw(st.sampled_from(symbols)), sigmas=8.0)
        stale = data.draw(st.sets(st.sampled_from(symbols), max_size=len(symbols) // 2))
        ticks.append({s: p for s, p in tick.items() if s not in stale})
    config = AlertConfig(latch_alerts=latch)
    stream = tick_loop(g, ticks, config)
    for _ in stream:
        pass
    got = stream.graph
    want = reference_loop(g, ticks, config)
    assert [n.alert_history for n in got.nodes] == [n.alert_history for n in want.nodes]

    # the per-epoch record, rebuilt from each tick's evaluated ids and flags
    entries = [[] for _ in got.nodes]
    for epoch, ids, flags in got.node_source.log:
        for nid, flag in zip(ids.tolist(), flags.tolist()):
            entries[nid].append((epoch, ALERTED if flag else CLEAR))
    for node, history in zip(got.nodes, entries):
        runs = node.alert_history
        assert [(f + j, s) for f, c, s in runs for j in range(c)] == history
        # maximal: neighbouring runs differ in state or leave an epoch out
        for (f, c, s), (f2, _, s2) in zip(runs, runs[1:]):
            assert s != s2 or f + c < f2
            event("a stale epoch splits a run" if s == s2 else "a change of state splits a run")

    runs_data = export(got, "json").decode()
    entries_data = entries_document(got, entries)
    assert loads_graph(entries_data) == loads_graph(runs_data) == got
    for text in (entries_data, runs_data):
        saved = export(loads_graph(text), "json")
        assert saved.decode() == runs_data
        assert export(loads_graph(saved.decode()), "json") == saved

    # a run resumed from its saved graph continues its nodes' last runs
    k = data.draw(st.integers(0, len(ticks)))
    first = tick_loop(g, ticks[:k], config)
    for _ in first:
        pass
    second = tick_loop(loads_graph(export(first.graph, "json").decode()), ticks[k:], config)
    for _ in second:
        pass
    assert export(second.graph, "json").decode() == runs_data
