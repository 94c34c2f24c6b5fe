"""SLO declarations, burn-rate math, service wiring, CLI verdict."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO, SLOMonitor


class TestSLOValidation:
    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError):
            SLO(name="lat", kind="latency", threshold=None)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="availability", target=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="throughput")

    def test_duplicate_names_rejected(self):
        slo = SLO(name="a", kind="availability", target=0.9)
        with pytest.raises(ValueError):
            SLOMonitor([slo, slo])


class TestBurnRate:
    def _monitor(self, **kwargs):
        defaults = dict(
            name="lat", kind="latency", threshold=0.01, target=0.9,
            window=10, max_burn_rate=2.0,
        )
        defaults.update(kwargs)
        return SLOMonitor([SLO(**defaults)])

    def test_all_good_burns_nothing(self):
        monitor = self._monitor()
        for _ in range(20):
            monitor.record("route", 0.001)
        row = monitor.status()[0]
        assert row["compliance"] == 1.0
        assert row["burn_rate"] == 0.0
        assert row["budget_remaining"] == 1.0
        assert monitor.ok()

    def test_burn_rate_is_bad_fraction_over_budget(self):
        monitor = self._monitor()  # budget = 1 - 0.9 = 0.1
        # 10-wide window with 3 slow requests: compliance 0.7,
        # burn rate 0.3 / 0.1 = 3.0 > max 2.0.
        for i in range(10):
            monitor.record("route", 0.5 if i < 3 else 0.001)
        row = monitor.status()[0]
        assert row["compliance"] == pytest.approx(0.7)
        assert row["burn_rate"] == pytest.approx(3.0)
        assert not monitor.ok()

    def test_window_slides(self):
        monitor = self._monitor()
        for _ in range(10):
            monitor.record("route", 0.5)  # all bad
        assert monitor.status()[0]["burn_rate"] == pytest.approx(10.0)
        for _ in range(10):
            monitor.record("route", 0.001)  # window fully refreshed
        row = monitor.status()[0]
        assert row["burn_rate"] == 0.0
        # ...but the lifetime budget remembers: 10 bad of 20 total.
        assert row["budget_remaining"] == pytest.approx(1.0 - 0.5 / 0.1)

    def test_op_scoping(self):
        monitor = self._monitor(op="route")
        monitor.record("dominator", 99.0)  # different op: not scored
        assert monitor.status()[0]["total_requests"] == 0
        monitor.record("route", 99.0)
        assert monitor.status()[0]["total_requests"] == 1

    def test_availability_counts_failures_and_misses(self):
        monitor = SLOMonitor(
            [SLO(name="avail", kind="availability", target=0.5, window=4)]
        )
        monitor.record("route", 0.1, ok=True)
        monitor.record("route", 0.1, ok=False)
        monitor.record("route", 0.1, ok=True, deadline_missed=True)
        row = monitor.status()[0]
        assert row["compliance"] == pytest.approx(1 / 3)

    def test_gauges_published(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(
            [SLO(name="lat", kind="latency", threshold=0.01, target=0.9)],
            registry=registry,
        )
        monitor.record("route", 0.001)
        monitor.record("route", 0.5)
        monitor.status()
        assert registry.value("slo_compliance", slo="lat") == pytest.approx(0.5)
        assert registry.value("slo_burn_rate", slo="lat") == pytest.approx(5.0)
        assert registry.value("slo_requests_total", slo="lat", good="true") == 1
        assert registry.value("slo_requests_total", slo="lat", good="false") == 1

    def test_over_cap_children_count_every_drop(self):
        # One labeled child per family: good="true" is registered, and
        # every bad request is handed a detached child and counted as a
        # drop, however often it repeats.
        registry = MetricsRegistry(max_label_children=1)
        monitor = SLOMonitor(
            [SLO(name="lat", kind="latency", threshold=0.01, target=0.9)],
            registry=registry,
        )
        for elapsed in (0.001, 0.5, 0.5, 0.001, 0.5):
            monitor.record("route", elapsed)
        assert registry.value("slo_requests_total", slo="lat", good="true") == 2
        assert list(registry.children("slo_requests_total")) == [
            (("good", "true"), ("slo", "lat"))
        ]
        dropped = registry.value(
            MetricsRegistry.DROPPED_LABELS, family="slo_requests_total"
        )
        assert dropped == 3


class TestServiceWiring:
    def _graph(self):
        from repro.graphs import connected_random_udg

        return connected_random_udg(30, 4.0, seed=3)

    def test_service_scores_requests(self):
        from repro.service import BackboneService, ServiceConfig

        config = ServiceConfig(
            slos=(SLO(name="avail", kind="availability", target=0.99),)
        )
        service = BackboneService(self._graph(), config)
        node = sorted(service.graph.nodes())[0]
        for _ in range(5):
            assert service.dominator(node).ok
        row = service.slo_monitor.status()[0]
        assert row["total_requests"] == 5
        assert row["compliance"] == 1.0
        assert service.slo_monitor.ok()

    def test_no_slos_no_monitor(self):
        from repro.service import BackboneService

        assert BackboneService(self._graph()).slo_monitor is None

    def test_slos_survive_list_coercion(self):
        from repro.service import ServiceConfig

        config = ServiceConfig(
            slos=[SLO(name="a", kind="availability", target=0.9)]
        )
        assert isinstance(config.slos, tuple)


class TestCli:
    """``repro serve --slo-*`` prints the burn-rate table and exits 1
    while an error budget burns."""

    def _serve(self, *slo_flags):
        from repro.cli import main

        return main([
            "serve", "--nodes", "100", "--side", "6", "--queries", "60",
            *slo_flags,
        ])

    def test_serve_slo_verdict_ok(self, capsys):
        code = self._serve("--slo-latency", "any:5.0:0.9")
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO burn rates" in out and "BURNING" not in out

    def test_serve_slo_verdict_burning(self, capsys):
        # A 1-nanosecond latency bound: everything violates it.
        code = self._serve("--slo-latency", "any:0.000000001:0.9")
        out = capsys.readouterr().out
        assert code == 1
        assert "BURNING" in out

    def test_bad_slo_spec(self, capsys):
        code = self._serve("--slo-latency", "nonsense")
        assert code == 2
        assert "OP:SECS" in capsys.readouterr().err
