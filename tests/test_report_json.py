"""AlertReport.to_json against the json.dumps line it replaced.

to_json writes the canonical report line itself when it can vouch for every
value (exact ints, finite float deviations, a bool verdict) and hands any
other report to json.dumps. Either way the line must be the bytes of
json.dumps(obj, sort_keys=True, separators=(",", ":")), or the same error
class.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointwatch.alert import AlertReport

INT_FIELDS = ("epoch", "edges_checked", "edges_skipped_stale")


def oracle_line(report):
    """The report as json.dumps writes it."""
    obj = {
        "epoch": report.epoch,
        "node_alerts": list(report.node_alerts),
        "broken_edges": [[eid, dev] for eid, dev in report.broken_edges],
        "global_alert": report.global_alert,
        "edges_checked": report.edges_checked,
        "edges_skipped_stale": report.edges_skipped_stale,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def outcome(fn, report):
    """The line on success, the error class on failure."""
    try:
        return fn(report)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


ints = st.integers(-(2**70), 2**70)
deviations = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, math.inf, -math.inf, math.nan]),
)
# values json writes (np.float64, bool, int as a deviation, None) or
# rejects (numpy ints and bools), none of which the writer vouches for
odd_ints = st.one_of(st.booleans(), st.integers(-(2**63), 2**63 - 1).map(np.int64))
odd_deviations = st.one_of(
    st.floats().map(np.float64), ints, st.booleans(), st.just(np.float32(1.5))
)
odd_verdicts = st.sampled_from([0, 1, None, np.bool_(True), np.bool_(False)])


@st.composite
def reports(draw):
    """A report as tick_kernel makes it, with at most one field holding a
    value the writer cannot vouch for."""
    fields = {name: draw(ints) for name in INT_FIELDS}
    fields["node_alerts"] = draw(st.lists(ints, max_size=6))
    fields["broken_edges"] = draw(st.lists(st.tuples(ints, deviations), max_size=6))
    fields["global_alert"] = draw(st.booleans())
    odd = draw(st.sampled_from([None, *INT_FIELDS, "node_alerts", "eid", "deviation", "verdict"]))
    if odd in INT_FIELDS:
        fields[odd] = draw(odd_ints)
    elif odd == "node_alerts":
        at = draw(st.integers(0, len(fields["node_alerts"])))
        fields["node_alerts"].insert(at, draw(odd_ints))
    elif odd in ("eid", "deviation"):
        eid, dev = draw(ints), draw(deviations)
        if odd == "eid":
            eid = draw(odd_ints)
        else:
            dev = draw(odd_deviations)
        at = draw(st.integers(0, len(fields["broken_edges"])))
        fields["broken_edges"].insert(at, (eid, dev))
    elif odd == "verdict":
        fields["global_alert"] = draw(odd_verdicts)
    fields["node_alerts"] = tuple(fields["node_alerts"])
    fields["broken_edges"] = tuple(fields["broken_edges"])
    return AlertReport(**fields)


@settings(max_examples=800, deadline=None)
@given(report=reports())
# a quiet tick: no alert, no broken edge
@example(AlertReport(3, (), (), False, 7000, 680))
# a health policy that declares a global alert with nothing broken
@example(AlertReport(3, (), (), True, 7000, 680))
@example(AlertReport(2**70, (0, 2**70), ((2**70, 1e16), (1, -0.0)), True, 2**70, 0))
@example(AlertReport(1, (0,), ((0, 5e-324), (1, 1e-5), (2, 1e16), (3, 3.0000000000000004)), False, 2, 0))
@example(AlertReport(1, (0,), ((0, math.inf),), False, 2, 0))
@example(AlertReport(1, (0,), ((0, math.nan),), False, 2, 0))
@example(AlertReport(1, (0,), ((0, np.float64(4.25)),), False, 2, 0))
@example(AlertReport(True, (), (), False, 2, 0))
@example(AlertReport(1, (), (), False, np.int64(2), 0))
@example(AlertReport(1, (np.int64(0),), (), False, 2, 0))
@example(AlertReport(1, (0,), ((np.int64(0), 4.0),), False, 2, 0))
@example(AlertReport(1, (0,), ((False, 4.0),), False, 2, 0))
def test_to_json_is_the_json_dumps_line(report):
    assert outcome(AlertReport.to_json, report) == outcome(oracle_line, report)


def test_plain_reports_do_not_use_json_dumps(monkeypatch):
    """A report of plain values is written without the json encoder."""
    plain = [
        AlertReport(3, (), (), False, 7000, 680),
        AlertReport(3, (), (), True, 7000, 680),
        AlertReport(4, (1, 7), ((12, 3.5), (40, 1e16)), True, 7000, 680),
    ]
    want = [oracle_line(report) for report in plain]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for a plain report")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [report.to_json() for report in plain] == want
