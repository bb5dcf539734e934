import json
import math

import pytest

from cointwatch import alert, synth
from cointwatch.alert import (
    AlertConfig,
    global_reduce,
    leash_check,
    selective_recompute,
    tick_loop,
)
from cointwatch.errors import (
    InsufficientWindow,
    ParseError,
    SchemaViolation,
    UnknownEdge,
    UnknownSymbol,
    ZeroSigma,
)
from cointwatch.graph import ALERTED, CLEAR, build_graph, update_prices
from cointwatch.coint import PriceSeries

import scenarios
from conftest import dummy_model, planted_instance, sequential_broken_oracle
from oracle import reference_tick
from test_graph import pair


def run_tick(g, tick, config=AlertConfig()):
    """One reference-path tick without the loop wrapper; returns (graph,
    per-node states, report)."""
    g2 = update_prices(g, tick)
    states, report = reference_tick(g2, config)
    return g2, states, report


class TestLeashCheck:
    model = dummy_model(beta0=1.0, beta1=2.0, resid_std=0.5)

    def test_on_the_line(self):
        fired, dev = leash_check(self.model, 10.0, 21.0, 3.0)
        assert (fired, dev) == (False, 0.0)

    def test_four_sigma(self):
        fired, dev = leash_check(self.model, 10.0, 23.0, 3.0)
        assert fired and dev == 4.0

    def test_exact_boundary_is_quiet(self):
        fired, dev = leash_check(self.model, 10.0, 22.5, 3.0)
        assert dev == 3.0 and not fired

    def test_zero_sigma_is_a_bug(self):
        broken_model = dummy_model(resid_std=0.0)
        with pytest.raises(ZeroSigma):
            leash_check(broken_model, 1.0, 1.0, 3.0)

    def test_nonzero_resid_mean(self):
        model = dummy_model(beta0=0.0, beta1=1.0, resid_std=1.0)
        model = type(model)(**{**model.__dict__, "resid_mean": 2.0})
        fired, dev = leash_check(model, 10.0, 12.0, 3.0)
        assert dev == 0.0 and not fired


class TestVertexProgram:
    def two_node_graph(self):
        # model: B = 1 + 2*A with sigma 0.5
        return build_graph(
            [pair("A", "B", resid_std=0.5)],
            0.05,
            ["A", "B"],
        )

    def test_consistent_prices_all_clear(self):
        g = self.two_node_graph()
        model = g.edges[0].model
        tick = {"A": 10.0, "B": model.beta0 + model.beta1 * 10.0}
        _, states, report = run_tick(g, tick)
        assert report.node_alerts == ()
        assert report.broken_edges == ()
        assert report.edges_checked == 2
        assert report.edges_skipped_stale == 0
        assert all(s.node.alert_state == CLEAR for s in states)

    def test_both_endpoints_alert_on_break(self):
        g = self.two_node_graph()
        model = g.edges[0].model
        shifted = model.beta0 + model.beta1 * 10.0 + 5.0 * model.resid_std
        _, states, report = run_tick(g, {"A": 10.0, "B": shifted})
        assert report.node_alerts == (0, 1)
        assert len(report.broken_edges) == 1
        eid, dev = report.broken_edges[0]
        assert eid == 0 and dev == pytest.approx(5.0)
        assert all(s.node.alert_state == ALERTED for s in states)

    def test_stale_endpoint_skips_both_sides(self):
        g = self.two_node_graph()
        g = update_prices(g, {"A": 10.0, "B": 21.0})  # epoch 1: both fresh
        _, states, report = run_tick(g, {"A": 10.0})  # epoch 2: B stale
        assert report.edges_checked == 0
        assert report.edges_skipped_stale == 2
        assert report.node_alerts == ()

    def test_alert_history_appended_only_when_evaluated(self):
        g = self.two_node_graph()
        model = g.edges[0].model
        in_band = {"A": 10.0, "B": model.beta0 + model.beta1 * 10.0}
        g2, states, _ = run_tick(g, in_band)
        node_a = states[0].node
        assert node_a.alert_history == ((1, 1, CLEAR),)
        # stale tick: no evaluation, no history entry
        g3 = update_prices(g2, {})
        states3, _ = reference_tick(g3, AlertConfig())
        assert states3[0].node.alert_history == ()

    def test_shocked_node_matches_sequential_oracle(self, small_planted):
        g, base, _ = small_planted
        symbol = g.nodes[0].symbol
        tick, expected = synth.shock_tick(g, base, symbol, sigmas=6.0)
        g2, states, report = run_tick(g, tick)
        assert tuple(eid for eid, _ in report.broken_edges) == expected
        oracle = sequential_broken_oracle(g2, 3.0)
        assert dict(report.broken_edges) == oracle
        # endpoints of broken edges are exactly the alerted nodes
        endpoints = set()
        for eid, _ in report.broken_edges:
            endpoints.add(g.edges[eid].src)
            endpoints.add(g.edges[eid].dst)
        assert set(report.node_alerts) == endpoints

    def test_conservation(self, small_planted):
        g, base, _ = small_planted
        _, _, report = run_tick(g, base)
        assert report.edges_checked + report.edges_skipped_stale == 2 * g.n_edges


class TestGlobalReduce:
    def make_report(self, n_alerts, epoch=1):
        return alert.AlertReport(
            epoch=epoch,
            node_alerts=tuple(range(n_alerts)),
            broken_edges=(),
            global_alert=False,
            edges_checked=0,
            edges_skipped_stale=0,
        )

    def test_zero_alerts_never_global(self):
        g = build_graph([], 0.05, list("ABCD"))
        for fraction in (0.01, 0.2, 0.99):
            config = AlertConfig(global_fraction=fraction)
            assert not global_reduce(g, self.make_report(0), config)

    def test_everyone_alerted(self):
        g = build_graph([], 0.05, list("ABCD"))
        assert global_reduce(g, self.make_report(4), AlertConfig(global_fraction=0.5))

    def test_thirteen_of_sixtyfour(self):
        g = build_graph([], 0.05, [f"S{i:02d}" for i in range(64)])
        assert global_reduce(g, self.make_report(13), AlertConfig(global_fraction=0.2))

    def test_boundary_not_strict_enough(self):
        g = build_graph([], 0.05, list("ABCDE"))
        # exactly at the fraction: strictly-greater rule stays quiet
        assert not global_reduce(g, self.make_report(1), AlertConfig(global_fraction=0.2))

    def test_pluggable_health_fn(self):
        g = build_graph([], 0.05, list("AB"))
        calls = []

        def sector_policy(graph, report, config):
            calls.append(report.epoch)
            return True

        assert global_reduce(g, self.make_report(0), AlertConfig(), health_fn=sector_policy)
        assert calls == [1]


class TestSelectiveRecompute:
    def test_empty_broken_list_is_identity(self, small_planted):
        g, _, series = small_planted
        g2, summary = selective_recompute(g, [], series, AlertConfig())
        assert g2 == g
        assert summary.refitted == () and summary.removed == ()

    def test_transient_shock_edge_retained(self):
        scenario = scenarios.transient_scenario(seed=3)
        g = scenarios.pair_graph(scenario.fit_x, scenario.fit_y)
        old_model = g.edges[0].model
        g2, summary = selective_recompute(g, [0], scenario.refit_window, AlertConfig())
        assert summary.refitted == (0,)
        assert g2.edges[0].model != old_model
        assert g2.edges[0].model.pvalue < 0.05
        assert not g2.edges[0].broken

    def test_regime_break_edge_removed(self):
        scenario = scenarios.regime_break_scenario(seed=3)
        g = scenarios.pair_graph(scenario.fit_x, scenario.fit_y)
        g2, summary = selective_recompute(g, [0], scenario.refit_window, AlertConfig())
        assert summary.removed == (0,)
        assert g2.n_edges == 0
        assert g2.n_nodes == 2

    def test_untouched_edges_are_same_objects(self, small_planted):
        g, _, series = small_planted
        eids = sorted(g.edges)
        g2, _ = selective_recompute(g, [eids[0]], series, AlertConfig())
        for eid in eids[1:]:
            assert g2.edges[eid] == g.edges[eid]

    def test_missing_symbol_insufficient_window(self, small_planted):
        g, _, series = small_planted
        with pytest.raises(InsufficientWindow):
            selective_recompute(g, [sorted(g.edges)[0]], series[2:], AlertConfig())

    def test_short_window_insufficient(self, small_planted):
        g, _, series = small_planted
        stubs = [PriceSeries(s.symbol, s.values[:3], "stub") for s in series]
        with pytest.raises(InsufficientWindow):
            selective_recompute(g, [sorted(g.edges)[0]], stubs, AlertConfig())

    def test_unknown_edge_id(self, small_planted):
        g, _, series = small_planted
        with pytest.raises(UnknownEdge, match="edge id 999 is not in the graph"):
            selective_recompute(g, [999], series, AlertConfig())


class TestTickLoop:
    def test_in_band_stream_never_breaks(self, small_planted):
        g, base, _ = small_planted
        ticks = [synth.jittered_tick(g, base, seed=100 + i) for i in range(5)]
        reports = list(tick_loop(g, ticks, AlertConfig()))
        assert [r.epoch for r in reports] == [1, 2, 3, 4, 5]
        assert all(r.broken_edges == () for r in reports)
        assert all(not r.global_alert for r in reports)

    def test_single_shock_tick(self, small_planted):
        g, base, _ = small_planted
        symbol = g.nodes[3].symbol
        tick, expected = synth.shock_tick(g, base, symbol, sigmas=6.0)
        stream = tick_loop(g, [tick], AlertConfig())
        reports = list(stream)
        assert len(reports) == 1
        assert tuple(eid for eid, _ in reports[0].broken_edges) == expected
        # broken flags are recorded on the published graph version
        for eid in expected:
            assert stream.graph.edges[eid].broken

    def test_empty_stream(self, small_planted):
        g, _, _ = small_planted
        stream = tick_loop(g, [], AlertConfig())
        assert list(stream) == []
        assert stream.graph == g

    def test_monotone_in_sigma_k(self, small_planted):
        g, base, _ = small_planted
        tick, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=4.0)
        broken = {}
        for k in (2.0, 3.0, 3.9):
            reports = list(tick_loop(g, [tick], AlertConfig(sigma_k=k)))
            broken[k] = {eid for eid, _ in reports[0].broken_edges}
        assert broken[3.9] <= broken[3.0] <= broken[2.0]

    def test_no_shock_soundness_exact_predictions(self):
        # star: every dst priced exactly at prediction + resid_mean
        results = [pair("S", d, resid_std=0.3) for d in ("A", "B", "C")]
        g = build_graph(results, 0.05, ["S", "A", "B", "C"])
        x = 50.0
        tick = {"S": x}
        for eid, e in g.edges.items():
            m = e.model
            tick[g.nodes[e.dst].symbol] = m.beta0 + m.beta1 * x + m.resid_mean
        for k in (0.5, 1.0, 3.0):
            reports = list(tick_loop(g, [tick], AlertConfig(sigma_k=k)))
            assert reports[0].broken_edges == ()

    def test_latched_vs_reevaluated(self, small_planted):
        g, base, _ = small_planted
        symbol = g.nodes[0].symbol
        shock, _ = synth.shock_tick(g, base, symbol, sigmas=6.0)
        node_id = g.symbol_ids[symbol]

        plain = tick_loop(g, [shock, base], AlertConfig())
        list(plain)
        assert plain.graph.nodes[node_id].alert_state == CLEAR

        latched = tick_loop(g, [shock, base], AlertConfig(latch_alerts=True))
        list(latched)
        assert latched.graph.nodes[node_id].alert_state == ALERTED

    def test_failed_tick_names_epoch(self, small_planted):
        g, base, _ = small_planted
        stream = tick_loop(g, [base, {"NOPE": 1.0}], AlertConfig())
        next(stream)
        with pytest.raises(UnknownSymbol, match="epoch 2"):
            next(stream)

    @pytest.mark.parametrize(
        "error, field, value",
        [
            (SchemaViolation("graph.nodes[3]", "not an object"), "path", "graph.nodes[3]"),
            (ParseError("row is not numeric", line=7), "line", 7),
        ],
        ids=["SchemaViolation", "ParseError"],
    )
    def test_failed_tick_keeps_error_class_and_fields(self, small_planted, error, field, value):
        g, base, _ = small_planted

        def failing_health(graph, report, config):
            raise error

        stream = tick_loop(g, [base], AlertConfig(), health_fn=failing_health)
        with pytest.raises(type(error)) as info:
            next(stream)
        assert type(info.value) is type(error)
        assert getattr(info.value, field) == value
        assert str(info.value) == f"tick for epoch 1 failed: {error}"
        assert info.value.__cause__ is error

    def test_recompute_off_never_mutates_topology(self, small_planted):
        g, base, _ = small_planted
        tick, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=6.0)
        stream = tick_loop(g, [tick], AlertConfig())
        list(stream)
        assert sorted(stream.graph.edges) == sorted(g.edges)

    def test_recompute_onbreak_repairs_or_prunes(self):
        scenario = scenarios.transient_scenario(seed=11)
        g = scenarios.pair_graph(scenario.fit_x, scenario.fit_y)
        stream = tick_loop(
            g,
            [scenario.tick],
            AlertConfig(),
            recompute_policy=alert.RECOMPUTE_ON_BREAK,
            history=[scenario.fit_x, scenario.fit_y],
        )
        reports = list(stream)
        assert reports[0].broken_edges != ()
        assert stream.last_recompute is not None
        # transient shock: the refit window (history + shock tick) re-admits
        assert stream.last_recompute.refitted == (0,)
        assert stream.graph.n_edges == 1
        assert not stream.graph.edges[0].broken

    def test_recompute_onbreak_requires_history(self, small_planted):
        g, base, _ = small_planted
        tick, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=6.0)
        stream = tick_loop(
            g, [tick], AlertConfig(), recompute_policy=alert.RECOMPUTE_ON_BREAK
        )
        with pytest.raises(InsufficientWindow):
            next(stream)


class TestReportSerialization:
    def test_jsonl_fields(self, small_planted):
        g, base, _ = small_planted
        tick, _ = synth.shock_tick(g, base, g.nodes[0].symbol, sigmas=6.0)
        report = next(tick_loop(g, [tick], AlertConfig()))
        line = report.to_json()
        obj = json.loads(line)
        assert set(obj) == {
            "epoch",
            "node_alerts",
            "broken_edges",
            "global_alert",
            "edges_checked",
            "edges_skipped_stale",
        }
        assert obj["epoch"] == 1
        assert obj["broken_edges"] == [[eid, dev] for eid, dev in report.broken_edges]
        assert "\n" not in line


class TestAlertConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_k": 0.0},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"global_fraction": -0.1},
            {"global_fraction": 1.5},
            {"sigma_k": math.inf},
            {"sigma_k": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlertConfig(**kwargs)
