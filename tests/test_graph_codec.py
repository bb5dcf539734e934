"""The graph JSON codec against the two-walk loader it replaced.

graph.from_json_obj checks each field in the walk that reads it. The oracle
below is the earlier loader, kept verbatim: a validator walked the document
first, then a builder read it again. On any document, the codec must raise
the oracle's SchemaViolation (same path and message) or load the oracle's
graph, re-exported byte for byte. The two walks disagreed in two places,
which the codec fixes:

- a node without ``last_price`` passed the validator, then the builder
  raised KeyError; the codec names the field ("missing field");
- a bool alert-history epoch passed as an int and re-exported as 1 or 0;
  the codec rejects the history item ("expected [epoch, state]").

The oracle reads alert histories as [epoch, state] entries; the codec also
reads [first_epoch, count, state] runs, and holds and writes every history
as maximal runs. So a document is judged by the oracle once its well-formed
runs are written out as entries (the v2 rule, _expanded), and the oracle's
graph is compared after its histories are cut into runs.
"""

import json
import re
import sys
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cointwatch import graph as graphmod, synth
from cointwatch.alert import AlertConfig, tick_loop
from cointwatch.errors import SchemaViolation
from cointwatch.graph import ALERTED, CLEAR, CointGraph, EdgeColumns, SymbolNode, export
from cointwatch.pipeline import loads_graph

from conftest import planted_instance, random_graph

# -- the oracle: the loader before the codec ---------------------------------

MAX_EPOCH = 2**62
_FLOAT_MAX = sys.float_info.max


_JSON_NAMES = {int: "integer", float: "number", (int, float): "number", str: "string",
               list: "array", dict: "object", bool: "boolean", type(None): "null"}


def _expect(obj, key, types, path):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise SchemaViolation(
            f"{path}.{key}", f"expected {_JSON_NAMES[types]}, got {_JSON_NAMES[type(value)]}"
        )
    return value


def _validate_model(obj, path):
    for key in ("beta0", "beta1", "resid_mean", "resid_std", "adf_stat"):
        if not abs(_expect(obj, key, (int, float), path)) <= _FLOAT_MAX:
            raise SchemaViolation(f"{path}.{key}", "must be finite")
    pvalue = _expect(obj, "pvalue", (int, float), path)
    if not 0.0 <= pvalue <= 1.0:
        raise SchemaViolation(f"{path}.pvalue", f"must be in [0, 1], got {pvalue}")
    if obj["resid_std"] <= 0.0:
        raise SchemaViolation(f"{path}.resid_std", f"must be > 0, got {obj['resid_std']}")
    _expect(obj, "window_id", str, path)


def _validate_graph_obj(obj) -> None:
    epoch = _expect(obj, "epoch", int, "$")
    if not 0 <= epoch <= MAX_EPOCH:
        raise SchemaViolation("$.epoch", f"must be in [0, 2**62], got {epoch}")
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
            if not 0 < price <= _FLOAT_MAX:
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
        if not -1 <= updated <= epoch:  # -1: never priced
            raise SchemaViolation(
                f"{path}.last_update_epoch", f"must be in [-1, graph epoch {epoch}], got {updated}"
            )

    edges = _expect(obj, "edges", list, "$")
    seen_pairs: set[tuple[int, int]] = set()
    seen_ids: set[int] = set()
    for i, edge in enumerate(edges):
        path = f"edges[{i}]"
        eid = _expect(edge, "id", int, path)
        if not -(2**63) <= eid < 2**63:
            raise SchemaViolation(f"{path}.id", f"must fit in int64, got {eid}")
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


_MODEL_FIELDS = ("beta0", "beta1", "resid_mean", "resid_std", "pvalue", "adf_stat", "window_id")


def oracle_from_json_obj(obj: dict) -> CointGraph:
    nodes = tuple(
        SymbolNode(
            id=n["id"],
            symbol=n["symbol"],
            last_price=n["last_price"],
            alert_state=n["alert_state"],
            alert_history=tuple((int(e), s) for e, s in n["alert_history"]),
            last_update_epoch=n["last_update_epoch"],
        )
        for n in obj["nodes"]
    )
    edges = obj["edges"]
    models = [e["model"] for e in edges]
    columns = EdgeColumns.of_lists(
        eid=[e["id"] for e in edges],
        src=[e["src"] for e in edges],
        dst=[e["dst"] for e in edges],
        broken=[e["broken"] for e in edges],
        **{name: [m[name] for m in models] for name in _MODEL_FIELDS},
    )
    return CointGraph(graphmod.NodeSnapshot.of_nodes(nodes), columns, obj["epoch"])


def oracle_loads(data: str) -> CointGraph:
    obj = json.loads(data)
    _validate_graph_obj(obj)
    g = oracle_from_json_obj(obj)
    graphmod.audit_adjacency(g)
    return g


# -- run-length histories -----------------------------------------------------

# the v2 rule expands a well-formed run longer than this to its first
# _CAP - 1 epochs and its last: its start, its end and the order of epochs
# are kept, so the oracle judges it as it would the whole run
_CAP = 16


def _is_run(item) -> bool:
    return (
        isinstance(item, list)
        and len(item) == 3
        and type(item[0]) is int
        and type(item[1]) is int
        and item[1] >= 1
        and item[2] in (CLEAR, ALERTED)
    )


def _expanded(data: str, cap: float = float("inf")) -> tuple[str, dict[int, list[int]]]:
    """The document with every well-formed run written as [epoch, state]
    entries (a run longer than cap cut as for _CAP), canonical, and for each
    node with a history the index of the item each of its entries came
    from."""
    doc = json.loads(data)
    origin: dict[int, list[int]] = {}
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    for i, node in enumerate(nodes if isinstance(nodes, list) else []):
        history = node.get("alert_history") if isinstance(node, dict) else None
        if not isinstance(history, list):
            continue
        entries, origin[i] = [], []
        for k, item in enumerate(history):
            if _is_run(item):
                first, count, state = item
                epochs = list(range(first, first + min(count, cap) - 1)) + [first + count - 1]
                entries += [[epoch, state] for epoch in epochs]
                origin[i] += [k] * len(epochs)
            else:
                entries.append(item)
                origin[i].append(k)
        node["alert_history"] = entries
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", origin


def _in_items(exc: SchemaViolation, origin: dict[int, list[int]]) -> SchemaViolation:
    """exc, raised on an _expanded document, naming the item of the
    document before expansion."""
    at = re.fullmatch(r"nodes\[(\d+)\]\.alert_history\[(\d+)\]", exc.path)
    if not at:
        return exc
    i, j = int(at[1]), int(at[2])
    path = f"nodes[{i}].alert_history[{origin[i][j]}]"
    return SchemaViolation(path, str(exc)[len(exc.path) + 2 :])


def _as_runs(g: CointGraph) -> CointGraph:
    """g with each [epoch, state] history cut into maximal runs."""
    nodes = []
    for n in g.nodes:
        runs = []
        for epoch, state in n.alert_history:
            if runs and runs[-1][2] == state and sum(runs[-1][:2]) == epoch:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1, state)
            else:
                runs.append((epoch, 1, state))
        nodes.append(replace(n, alert_history=tuple(runs)))
    return CointGraph(graphmod.NodeSnapshot.of_nodes(nodes), g.columns, g.epoch)


def v2_oracle_loads(data: str) -> CointGraph:
    """The oracle's graph of the _expanded document, in runs; a violation
    names the item of the document as given."""
    expanded, origin = _expanded(data, _CAP)
    try:
        return _as_runs(oracle_loads(expanded))
    except SchemaViolation as exc:
        raise _in_items(exc, origin) from None


# -- documents and mutations --------------------------------------------------


def _documents() -> list[str]:
    """Exported graphs: one never priced, and one a run took through a calm
    tick, a shock and a tick with a stale symbol, so it holds prices, alert
    histories, broken edges and a stale node; the latter with its histories
    as [epoch, state] entries, as files were written before run-length
    histories, and as exported."""
    g, base, _ = planted_instance(3, n_clusters=2, cluster_size=3)
    symbols = sorted(base)
    ticks = [
        base,
        synth.shock_tick(g, base, symbols[0], sigmas=8.0)[0],
        {s: p for s, p in base.items() if s != symbols[4]},
    ]
    stream = tick_loop(g, ticks, AlertConfig())
    for _ in stream:
        pass
    runs = export(stream.graph, "json").decode()
    unpriced = export(random_graph(2, n_nodes=4, n_edges=3), "json").decode()
    return [unpriced, _expanded(runs)[0], runs]


DOCUMENTS = _documents()


def _slots(doc) -> dict[tuple, list[tuple[tuple, bool]]]:
    """Every value in a document, the document itself included (path ()),
    as (path, is a dict key), grouped by field: the path with its list
    indexes replaced by "*", such as ("edges", "*", "model", "pvalue")."""
    found: dict[tuple, list[tuple[tuple, bool]]] = {(): [((), False)]}

    def walk(value, path):
        children = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in children:
            field = tuple("*" if isinstance(k, int) else k for k in path + (key,))
            found.setdefault(field, []).append((path + (key,), isinstance(value, dict)))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))

    walk(doc, ())
    return found


def _at(doc, path):
    return reduce(lambda value, key: value[key], path, doc)


_SCALARS = st.one_of(
    st.booleans(),
    st.integers(-3, 8),
    st.integers(10**399, 10**400 - 1) | st.integers(1 - 10**400, -(10**399)),  # 400 digits
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([CLEAR, ALERTED, "S00", "test", ""]) | st.text(max_size=4),
    st.none(),
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _like(value, siblings: list):
    """Values near value, so that mutated documents load as well as fail
    and meet each check's boundary: one of its JSON kind, a value of the
    same field elsewhere in the document, or, for a list, itself with one
    item more or one fewer."""
    if isinstance(value, bool):
        kind = st.booleans()
    elif isinstance(value, int):
        kind = st.integers(value - 3, value + 3)
    elif isinstance(value, float):
        kind = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 1.0])
    elif isinstance(value, str):
        kind = st.sampled_from([CLEAR, ALERTED, value + "x"])
    elif isinstance(value, list):
        kind = st.builds(lambda extra: value + [extra], JSON_VALUES) | st.just(value[:-1])
    else:
        kind = JSON_VALUES
    return kind | st.sampled_from(siblings)


_DELETE = object()


def mutated(data: str, path: tuple, value=_DELETE) -> str:
    """The document with the key at path deleted, or the value at path
    (the whole document for path ()) replaced."""
    doc = json.loads(data)
    if not path:
        return json.dumps(value)
    parent = _at(doc, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


@st.composite
def mutated_documents(draw):
    """One document with one key deleted or one value replaced by a random
    JSON value, half of the time one near the replaced value. Each field is
    as likely to be picked as any other, however often it occurs."""
    data = draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(data)
    fields = _slots(doc)
    slots = fields[draw(st.sampled_from(sorted(fields)))]
    path, is_key = draw(st.sampled_from(slots))
    if is_key and draw(st.booleans()):
        return mutated(data, path)
    siblings = [_at(doc, other) for other, _ in slots]
    return mutated(data, path, draw(JSON_VALUES | _like(_at(doc, path), siblings)))


def _outcome(loads, data):
    try:
        return loads(data)
    except SchemaViolation as exc:
        return exc


@settings(max_examples=1000, deadline=None)
@given(data=mutated_documents())
@example(data=mutated(DOCUMENTS[1], ("nodes", 2, "last_price")))
@example(data=mutated(DOCUMENTS[1], ("nodes", 0, "alert_history", 0, 0), True))
@example(data=mutated(DOCUMENTS[1], ("nodes", 0, "alert_history", 2, 0), False))
@example(data=mutated(DOCUMENTS[2], ("nodes", 0, "alert_history", 0, 1), 0))
@example(data=mutated(DOCUMENTS[2], ("nodes", 0, "alert_history", 0, 1), 10**400))
@example(data=mutated(DOCUMENTS[2], ("nodes", 0, "alert_history", 2, 1), 10**400))
def test_codec_matches_the_two_walk_loader(data):
    try:
        want = _outcome(v2_oracle_loads, data)
    except KeyError as exc:
        want = exc
    got = _outcome(loads_graph, data)
    if isinstance(want, KeyError):
        # fixed: the oracle's builder hit a node without last_price, which
        # its validator had passed; the codec names the first such node
        event("fixed: node without last_price")
        assert want.args == ("last_price",)
        doc = json.loads(data)
        i = next(i for i, node in enumerate(doc["nodes"]) if "last_price" not in node)
        assert isinstance(got, SchemaViolation)
        assert str(got) == f"nodes[{i}].last_price: missing field"
        return
    bool_epoch = isinstance(got, SchemaViolation) and re.fullmatch(
        r"(nodes\[(\d+)\]\.alert_history)\[(\d+)\]: expected \[epoch, state\]", str(got)
    )
    if bool_epoch:
        history, i, k = bool_epoch[1], int(bool_epoch[2]), int(bool_epoch[3])
        item = json.loads(data)["nodes"][i]["alert_history"][k]
        if (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], bool)
            and item[1] in (CLEAR, ALERTED)
        ):
            event("fixed: bool alert-history epoch")
            # fixed: the oracle took the bool for an epoch, and loaded the
            # document or judged this item or a later one of the same history
            if isinstance(want, SchemaViolation):
                judged = re.fullmatch(re.escape(history) + r"\[(\d+)\]", want.path)
                assert judged and int(judged[1]) >= k
            return
    if isinstance(want, SchemaViolation):
        assert isinstance(got, SchemaViolation)
        at = re.fullmatch(r"nodes\[(\d+)\]\.alert_history\[(\d+)\]", want.path)
        item = at and json.loads(data)["nodes"][int(at[1])]["alert_history"][int(at[2])]
        if isinstance(item, list) and len(item) == 3 and not _is_run(item):
            # a 3-item list the oracle rejects and the v2 rule did not
            # expand: a malformed run, rejected at the same item
            event("rejected: malformed run")
            assert got.path == want.path
            assert re.fullmatch(
                r"expected \[first_epoch, count, state\]|count must be at least 1, got -?\d+",
                str(got)[len(got.path) + 2 :],
            )
            return
        event("rejected")
        assert (got.path, str(got)) == (want.path, str(want))
        return
    event("loaded")
    assert got == want
    assert export(got, "json") == export(want, "json")


def test_unmutated_documents_load_and_reexport_byte_for_byte():
    for data in DOCUMENTS:
        assert loads_graph(data) == v2_oracle_loads(data)
    # entries load into the runs the run exported
    assert [export(loads_graph(data), "json").decode() for data in DOCUMENTS] == [
        DOCUMENTS[0], DOCUMENTS[2], DOCUMENTS[2]
    ]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("epoch",), "3", "$.epoch: expected integer, got string"),
        (("epoch",), 3.0, "$.epoch: expected integer, got number"),
        (("nodes",), {}, "$.nodes: expected array, got object"),
        (("nodes", 0, "symbol"), None, "nodes[0].symbol: expected string, got null"),
        (("nodes", 0, "alert_history"), "x", "nodes[0].alert_history: expected array, got string"),
        (("edges", 0, "broken"), 0, "edges[0].broken: expected boolean, got integer"),
        (("edges", 0, "model"), [], "edges[0].model: expected object, got array"),
        (("edges", 0, "model", "pvalue"), True,
         "edges[0].model.pvalue: expected number, got boolean"),
        (("edges", 0, "model", "window_id"), 1.5,
         "edges[0].model.window_id: expected string, got number"),
    ],
)
def test_a_field_of_the_wrong_type_names_json_types(path, value, message):
    with pytest.raises(SchemaViolation) as caught:
        loads_graph(mutated(DOCUMENTS[1], path, value))
    assert str(caught.value) == message


def test_a_load_shares_one_window_id_object_per_value():
    g, _, _ = planted_instance(5, n_clusters=3, cluster_size=4)
    doc = json.loads(export(g, "json"))
    for edge in doc["edges"][::2]:
        edge["model"]["window_id"] = "other"
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    loaded = loads_graph(data)
    assert len(loaded.columns) == 36
    assert len({id(w) for w in loaded.columns.window_id}) == 2
    assert export(loaded, "json").decode() == data


def test_a_load_holds_one_run_per_stretch_of_one_state():
    g, base, _ = planted_instance(5, n_clusters=3, cluster_size=4)
    wired = [n.symbol for n in g.nodes if g.out_edges[n.id] or g.in_edges[n.id]]
    ticks = [synth.jittered_tick(g, base, seed=t) for t in range(20)]
    ticks[7], _ = synth.shock_tick(g, ticks[7], wired[0], sigmas=8.0)
    stream = tick_loop(g, ticks, AlertConfig())
    for _ in stream:
        pass
    data = export(stream.graph, "json").decode()
    entries, _ = _expanded(data)
    for loaded in (loads_graph(data), loads_graph(entries)):
        assert loaded == stream.graph
        runs = [run for n in loaded.nodes for run in n.alert_history]
        assert {ALERTED, CLEAR} == {state for _, _, state in runs}
        # each wired node evaluated 20 epochs: one run, or three around the shock
        assert sum(count for _, count, _ in runs) == 20 * len(wired)
        assert len(runs) <= 3 * len(wired)
        assert export(loaded, "json").decode() == data
