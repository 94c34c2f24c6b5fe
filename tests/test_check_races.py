"""Tests for the schedule-perturbation race detector.

The two sides of the acceptance bar: the intentionally racy fixture
protocol must be *caught* (with a first-diverging-event diagnosis), and
the paper's Algorithm I / Algorithm II must run *clean* under at least
five legal delivery-order perturbations at n=50 and n=200.  Also pinned
here: the regressions for the latent nondeterminism the D1 sweep fixed
(hash-order-dependent broadcast forwarding and Dijkstra tie-breaks).
"""

import pytest

from repro.check import check_protocols, detect_races
from repro.check.fixtures import race_demo_report
from repro.check.races import PROTOCOL_CHECKS
from repro.graphs import Graph, connected_random_udg
from repro.graphs.graph import canonical_order
from repro.sim.engine import Simulator, perturbed_schedule
from repro.sim.trace import TraceRecorder


class TestRacyFixtureIsCaught:
    def test_demo_report_diverges(self):
        report = race_demo_report(perturbations=5)
        assert not report.ok
        assert report.divergences

    def test_divergence_carries_first_event(self):
        report = race_demo_report(perturbations=5)
        diagnosed = [
            d for d in report.divergences if d.first_diverging_event
        ]
        assert diagnosed, "no divergence carried a trace diagnosis"
        assert "baseline" in diagnosed[0].first_diverging_event

    def test_report_formats(self):
        report = race_demo_report(perturbations=2)
        text = report.format()
        assert "SCHEDULE RACE DETECTED" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["divergences"]


class TestPaperProtocolsAreClean:
    @pytest.mark.parametrize("n,side", [(50, 5.0), (200, 9.0)])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_CHECKS))
    def test_protocol_clean_under_perturbation(self, n, side, protocol):
        graph = connected_random_udg(n, side, seed=11)
        (report,) = check_protocols(
            graph, (protocol,), perturbations=5
        )
        assert report.ok, report.format()
        assert report.perturbations == 5

    def test_unknown_protocol_rejected(self):
        graph = connected_random_udg(10, 2.0, seed=1)
        with pytest.raises(KeyError):
            check_protocols(graph, ("gossip",))


class TestShardedStitchIsOrderIndependent:
    def test_active_perturbation_seed_accessor(self):
        from repro.sim.engine import active_perturbation_seed

        assert active_perturbation_seed() is None
        with perturbed_schedule(5):
            assert active_perturbation_seed() == 5
        assert active_perturbation_seed() is None

    def test_perturbed_stitch_stays_bit_identical_to_centralized(self):
        # A seeded perturbation shuffles the stitcher's within-round
        # frontier-exchange order; the fingerprint must not move and
        # must keep matching the centralized oracle exactly, after the
        # build and after the seeded moves (which change the MIS).
        from repro.check.races import sharded_wcds_fingerprint

        graph = connected_random_udg(60, 5.5, seed=3)
        runner = sharded_wcds_fingerprint(graph)
        baseline = dict(runner())
        assert baseline["matches_centralized"] is True
        assert baseline["moved_matches_centralized"] is True
        assert baseline["moved_mis"] != baseline["mis"]
        for seed in (1, 2, 9):
            with perturbed_schedule(seed):
                assert dict(runner()) == baseline

    def test_wcds_sharded_is_in_the_default_sweep(self):
        from repro.check.races import check_protocols as cp
        import inspect

        defaults = inspect.signature(cp).parameters["protocols"].default
        assert "wcds-sharded" in defaults


class TestDetectorMechanics:
    def test_needs_at_least_one_perturbation(self):
        with pytest.raises(ValueError):
            detect_races(lambda: {}, protocol="x", perturbations=0)

    def test_constant_runner_is_clean(self):
        report = detect_races(
            lambda: {"value": 42}, protocol="const", perturbations=3
        )
        assert report.ok

    def test_false_oracle_field_fails_without_divergence(self):
        # A fingerprint that disagrees with its oracle on every schedule
        # never diverges, so only its own verdict can fail the sweep.
        report = detect_races(
            lambda: {"mis": (1, 2), "matches_centralized": False},
            protocol="stale-oracle",
            perturbations=3,
        )
        assert not report.divergences
        assert not report.ok
        assert report.oracle_failures == [
            (None, "matches_centralized"),
            (1, "matches_centralized"),
            (2, "matches_centralized"),
            (3, "matches_centralized"),
        ]
        assert "ORACLE MISMATCH" in report.format()
        assert report.to_dict()["ok"] is False

    def test_cli_exits_one_on_an_oracle_mismatch(self, monkeypatch, capsys):
        import repro.check
        from repro.cli import main

        def stale_sweep(graph, perturbations=5):
            return [detect_races(
                lambda: {"moved_matches_centralized": False},
                protocol="wcds-sharded",
                perturbations=perturbations,
            )]

        monkeypatch.setattr(repro.check, "check_protocols", stale_sweep)
        code = main([
            "check", "--races", "--nodes", "20", "--side", "3",
            "--perturbations", "2", "src/repro/check/races.py",
        ])
        assert code == 1
        assert "ORACLE MISMATCH" in capsys.readouterr().out

    def test_schedule_dependent_runner_diverges(self):
        # A runner that leaks the tie-break schedule into its result.
        graph = Graph(edges=[(0, 1), (0, 2), (1, 2)])

        def runner():
            order = []

            class Probe:
                def __init__(self, ctx):
                    self.ctx = ctx

                def on_start(self):
                    self.ctx.broadcast("HELLO")

                def on_message(self, msg):
                    order.append((self.ctx.node_id, msg.sender))

                def on_timer(self, tag):
                    pass

                def result(self):
                    return {}

            from repro.sim.node import NodeContext  # noqa: F401

            sim = Simulator(graph, lambda ctx: Probe(ctx))
            sim.run()
            return {"order": tuple(order)}

        report = detect_races(runner, protocol="probe", perturbations=5)
        assert not report.ok

    def test_perturbed_schedule_restores_state(self):
        from repro.sim import engine

        assert engine._PERTURBATION is None
        with perturbed_schedule(3):
            assert engine._PERTURBATION is not None
            with perturbed_schedule(None):
                assert engine._PERTURBATION.seed is None
            assert engine._PERTURBATION.seed == 3
        assert engine._PERTURBATION is None

    def test_recorder_attached_as_tracer(self):
        graph = Graph(edges=[(0, 1)])
        recorder = TraceRecorder()
        with perturbed_schedule(None, recorder):
            sim = Simulator(graph, _quiet_node_factory())
            sim.run()
        assert recorder.events, "recorder saw no events"

    def test_perturbation_preserves_delivery_times(self):
        # Perturbed runs are legal radio-model executions: same event
        # multiset, same times — only same-time order may differ.
        graph = connected_random_udg(25, 3.5, seed=2)
        base = TraceRecorder()
        with perturbed_schedule(None, base):
            Simulator(graph, _quiet_node_factory()).run()
        pert = TraceRecorder()
        with perturbed_schedule(9, pert):
            Simulator(graph, _quiet_node_factory()).run()
        def key(event):
            return (
                event.time, event.action, repr(event.node),
                event.kind, repr(event.sender),
            )

        assert sorted(map(key, base.events)) == sorted(map(key, pert.events))


def _quiet_node_factory():
    class Quiet:
        def __init__(self, ctx):
            self.ctx = ctx

        def on_start(self):
            self.ctx.broadcast("PING")

        def on_message(self, msg):
            pass

        def on_timer(self, tag):
            pass

        def result(self):
            return {}

    return lambda ctx: Quiet(ctx)


class TestDeterminismRegressions:
    """The latent nondeterminism the D1 sweep fixed stays fixed."""

    EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]

    def _graphs_with_opposite_insertion_order(self):
        forward = Graph(edges=self.EDGES)
        backward = Graph(edges=[(v, u) for u, v in reversed(self.EDGES)])
        return forward, backward

    def test_canonical_order_sorts_ints(self):
        assert canonical_order({3, 1, 2}) == [1, 2, 3]

    def test_canonical_order_handles_unorderable_mix(self):
        out = canonical_order({(1, "a"), 7, "zz"})
        assert out == sorted(out, key=repr)

    def test_backbone_broadcast_ignores_insertion_order(self):
        from repro.routing import backbone_broadcast
        from repro.wcds import algorithm2_centralized

        forward, backward = self._graphs_with_opposite_insertion_order()
        result_f = algorithm2_centralized(forward)
        result_b = algorithm2_centralized(backward)
        out_f = backbone_broadcast(forward, result_f, 0)
        out_b = backbone_broadcast(backward, result_b, 0)
        assert out_f == out_b

    def test_simulator_transcript_ignores_insertion_order(self):
        forward, backward = self._graphs_with_opposite_insertion_order()
        transcripts = []
        for graph in (forward, backward):
            recorder = TraceRecorder()
            sim = Simulator(graph, _quiet_node_factory(), tracer=recorder)
            sim.run()
            transcripts.append(
                [
                    (e.time, e.action, repr(e.node), e.kind, repr(e.sender))
                    for e in recorder.events
                ]
            )
        assert transcripts[0] == transcripts[1]

    def test_dijkstra_tables_ignore_overlay_order(self):
        from repro.routing.overlay import OverlayPaths

        overlay_a = {0: {1: 2, 2: 2}, 1: {0: 2, 2: 2}, 2: {0: 2, 1: 2}}
        overlay_b = {
            node: dict(reversed(list(links.items())))
            for node, links in reversed(list(overlay_a.items()))
        }
        hops_a = OverlayPaths(overlay_a).first_hops(0)
        hops_b = OverlayPaths(overlay_b).first_hops(0)
        assert hops_a == hops_b
