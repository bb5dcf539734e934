"""The one-pass tick kernel on rows it computes but never reads.

tick_kernel computes every edge's deviation, stale and zero-sigma edges
included, and reads only the checked ones. Those unread rows may divide by
zero or overflow; that must stay silent (as Python float arithmetic is on
the reference path) and must not change a report. RuntimeWarnings are
errors here, so a kernel that drops its errstate fails these tests.
"""

import math

import pytest

from cointwatch.alert import AlertConfig
from cointwatch.graph import update_prices

from conftest import dummy_model
from oracle import replace_models
from test_tick_kernel import assert_equivalent, two_node_graph

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def priced_zero_sigma_graph():
    """A -> B with sigma 0, both endpoints already holding a price."""
    g = update_prices(two_node_graph(), {"A": 10.0, "B": 22.0})
    return replace_models(g, {0: dummy_model(beta0=1.0, beta1=2.0, resid_std=0.0)})


@pytest.mark.parametrize("tick", [{"A": 10.0}, {"B": 21.0}, {}], ids=["A", "B", "none"])
def test_a_stale_zero_sigma_edge_is_skipped_silently(tick):
    (report,) = assert_equivalent(priced_zero_sigma_graph(), [tick], AlertConfig())
    assert report.edges_checked == 0
    assert report.edges_skipped_stale == 2


def test_a_stale_zero_sigma_edge_with_equal_fit_is_skipped_silently():
    # 21 - (1 + 2*10) = 0: the unread row is 0/0
    g = update_prices(two_node_graph(), {"A": 10.0, "B": 21.0})
    g = replace_models(g, {0: dummy_model(beta0=1.0, beta1=2.0, resid_std=0.0)})
    (report,) = assert_equivalent(g, [{"A": 10.0}], AlertConfig())
    assert report.edges_skipped_stale == 2


def test_overflow_breaks_the_edge_as_python_floats_do():
    # 2 * 1e308 overflows to inf on both paths: an infinite deviation
    (report,) = assert_equivalent(two_node_graph(), [{"A": 1e308, "B": 1.0}], AlertConfig())
    assert report.broken_edges == ((0, math.inf),)
    assert report.node_alerts == (0, 1)
