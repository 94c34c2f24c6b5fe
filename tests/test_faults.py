"""Fault plans and the chaos harness.

Unit tests for the declarative :class:`FaultPlan` (static inspection,
rebasing, serialization), the engine's execution of it, and the
headline regression matrix: the paper's two algorithms must still
produce a valid WCDS on the survivors under ambient loss, mid-phase
crashes, and a healed partition.
"""

import math

import pytest

from repro.faults import (
    CHAOS_ALGORITHMS,
    Crash,
    FaultPlan,
    LossBurst,
    Partition,
    Revive,
    choose_crash_victims,
    default_fault_plan,
    run_chaos,
)
from repro.graphs import connected_random_udg, line_udg
from repro.graphs.traversal import is_connected
from repro.sim import SimConfig, Simulator
from repro.sim.node import ProtocolNode


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(crashes=(Crash(1.0, 0),))

    def test_dead_at_tracks_crash_and_revive(self):
        plan = FaultPlan(
            crashes=(Crash(2.0, "a"), Crash(4.0, "b")),
            revivals=(Revive(6.0, "a"),),
        )
        assert plan.dead_at(1.0) == frozenset()
        assert plan.dead_at(3.0) == frozenset({"a"})
        assert plan.dead_at(5.0) == frozenset({"a", "b"})
        assert plan.final_dead() == frozenset({"b"})

    def test_loss_rate_is_max_of_base_and_bursts(self):
        plan = FaultPlan(bursts=(LossBurst(2.0, 5.0, 0.4),))
        assert plan.loss_rate_at(1.0, base=0.1) == 0.1
        assert plan.loss_rate_at(3.0, base=0.1) == 0.4
        assert plan.loss_rate_at(3.0, base=0.6) == 0.6
        assert plan.loss_rate_at(6.0, base=0.1) == 0.1

    def test_partition_severs_only_across_the_cut(self):
        part = Partition(1.0, 3.0, frozenset({0, 1}))
        assert part.severs(0, 5)
        assert part.severs(5, 1)
        assert not part.severs(0, 1)
        assert not part.severs(4, 5)

    def test_boundary_times_sorted_and_complete(self):
        plan = FaultPlan(
            bursts=(LossBurst(0.0, 20.0, 0.3),),
            crashes=(Crash(4.0, 0),),
            partitions=(Partition(3.0, 12.0, frozenset({0})),),
        )
        assert plan.boundary_times() == (0.0, 3.0, 4.0, 12.0, 20.0)
        assert plan.horizon == 20.0

    def test_advanced_rebases_the_residual(self):
        plan = FaultPlan(
            bursts=(LossBurst(0.0, 20.0, 0.3),),
            crashes=(Crash(4.0, "x"), Crash(15.0, "y")),
            partitions=(Partition(3.0, 12.0, frozenset({"x"})),),
        )
        residual = plan.advanced(10.0)
        # 'x' is already dead: it reappears as a crash at t=0.
        assert Crash(0.0, "x") in residual.crashes
        assert Crash(5.0, "y") in residual.crashes
        # The burst is clipped to start now; the partition still has
        # 2 seconds to run.
        assert residual.bursts == (LossBurst(0.0, 10.0, 0.3),)
        assert residual.partitions == (
            Partition(0.0, 2.0, frozenset({"x"})),
        )
        # Advancing past the horizon leaves only the standing dead.
        late = plan.advanced(100.0)
        assert late.bursts == () and late.partitions == ()
        assert {c.node for c in late.crashes} == {"x", "y"}

    def test_json_roundtrip(self):
        plan = FaultPlan(
            bursts=(LossBurst(0.0, 20.0, 0.25),),
            crashes=(Crash(4.0, 7),),
            revivals=(Revive(9.0, 7),),
            partitions=(Partition(3.0, 12.0, frozenset({1, 2})),),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_infinite_partition_survives_roundtrip(self):
        plan = FaultPlan(
            partitions=(Partition(1.0, math.inf, frozenset({0})),)
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back.partitions[0].end == math.inf


class Beacon(ProtocolNode):
    def on_start(self):
        self.heard = set()
        self.ctx.broadcast("HI")

    def on_message(self, msg):
        self.heard.add(msg.sender)

    def result(self):
        return {"heard": self.heard}


class TestEngineExecution:
    def test_scheduled_crash_kills_mid_run(self):
        g = line_udg(5)
        plan = FaultPlan(crashes=(Crash(0.5, 2),))
        sim = Simulator(g, Beacon, SimConfig(fault_plan=plan))
        stats = sim.run()
        assert 2 in sim.crashed
        assert stats.fault_transitions >= 1
        # Node 2's t=0 broadcast was sent, but deliveries TO it after
        # t=0.5 are skipped.
        results = sim.collect_results()
        assert results[2]["heard"] == set()

    def test_partition_blocks_then_heals(self):
        g = line_udg(4)

        class Chatty(Beacon):
            def on_start(self):
                self.heard = set()
                self.ctx.set_timer(5.0, "later")
                self.ctx.broadcast("HI")

            def on_timer(self, tag):
                self.ctx.broadcast("AGAIN")

        plan = FaultPlan(partitions=(Partition(0.0, 3.0, frozenset({0, 1})),))
        sim = Simulator(g, Chatty, SimConfig(fault_plan=plan))
        stats = sim.run()
        assert stats.partition_blocked > 0
        # After healing, the t=5 round crosses the former cut.
        results = sim.collect_results()
        assert 2 in results[1]["heard"]

    def test_loss_burst_applies_only_inside_window(self):
        g = line_udg(3)
        plan = FaultPlan(bursts=(LossBurst(0.0, 0.25, 0.999999),))

        class TwoRounds(Beacon):
            def on_start(self):
                self.heard = set()
                self.ctx.broadcast("HI")
                self.ctx.set_timer(1.0, "later")

            def on_timer(self, tag):
                self.ctx.broadcast("AGAIN")

        sim = Simulator(g, TwoRounds, SimConfig(fault_plan=plan, seed=1))
        stats = sim.run()
        # Round one (t=0) is fully dropped; round two gets through.
        assert stats.dropped >= 2
        assert sim.collect_results()[1]["heard"] == {0, 2}


class TestDefaultPlan:
    def test_victims_keep_survivors_connected(self):
        g = connected_random_udg(30, 4.0, seed=3)
        plan = default_fault_plan(g, loss=0.1, crashes=2, seed=5)
        survivors = [n for n in g.nodes() if n not in plan.final_dead()]
        assert len(plan.final_dead()) == 2
        assert is_connected(g.subgraph(survivors))
        # The partition heals: no partition is active at the horizon.
        assert plan.active_partitions(plan.horizon + 1.0) == ()

    @pytest.mark.parametrize(
        "kwargs",
        [{"loss": -0.5}, {"loss": 1.0}, {"loss": 2.0}, {"loss": math.nan},
         {"crashes": -1}, {"crashes": -2}],
    )
    def test_bad_loss_or_crashes_rejected(self, kwargs):
        g = connected_random_udg(30, 4.0, seed=3)
        with pytest.raises(ValueError):
            default_fault_plan(g, **kwargs)

    def test_zero_loss_and_crashes_accepted(self):
        g = connected_random_udg(30, 4.0, seed=3)
        plan = default_fault_plan(g, loss=0.0, crashes=0, partition=False)
        assert not plan

    def test_choose_crash_victims_avoids_cut_nodes(self):
        import random

        g = line_udg(7)  # interior nodes are all cut vertices
        victims = choose_crash_victims(g, 2, random.Random(0))
        rest = [n for n in g.nodes() if n not in victims]
        assert is_connected(g.subgraph(rest))


class TestChaosMatrix:
    """The regression matrix from the issue: both algorithms, ambient
    loss in {0.1, 0.3}, two mid-phase crashes, one healed partition —
    the result must be a valid WCDS of the surviving subgraph."""

    @pytest.mark.parametrize("algorithm", CHAOS_ALGORITHMS)
    @pytest.mark.parametrize("loss", [0.1, 0.3])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_valid_wcds_on_survivors(self, algorithm, loss, seed):
        g = connected_random_udg(36, 4.6, seed=seed)
        plan = default_fault_plan(
            g, loss=loss, crashes=2, partition=True, seed=seed
        )
        report = run_chaos(
            algorithm, g, plan,
            sim=SimConfig(loss_rate=loss, seed=seed, transport=True),
        )
        assert report.valid, report.summary()
        assert report.survivor_count == g.num_nodes - 2
        assert report.dominators <= report.survivors
        assert report.messages_total > 0

    def test_lethal_plan_rejected(self):
        g = line_udg(3)
        plan = FaultPlan(crashes=tuple(Crash(1.0, n) for n in g.nodes()))
        with pytest.raises(ValueError, match="kills every node"):
            run_chaos("algorithm2", g, plan)

    def test_disconnecting_plan_rejected(self):
        g = line_udg(5)
        plan = FaultPlan(crashes=(Crash(1.0, 2),))  # middle of the chain
        with pytest.raises(ValueError, match="disconnects"):
            run_chaos("algorithm2", g, plan)

    def test_zero_epochs_rejected(self):
        g = connected_random_udg(20, 4.0, seed=1)
        with pytest.raises(ValueError, match="max_epochs"):
            run_chaos("algorithm2", g, FaultPlan(), max_epochs=0)

    def test_sim_with_a_fault_plan_rejected(self):
        # run_chaos owns the plan: it injects it on the first epoch and
        # drops it on a retry, so a plan inside ``sim`` is ambiguous.
        g = connected_random_udg(24, 3.8, seed=1)
        plan = default_fault_plan(g, crashes=1, seed=1)
        with pytest.raises(ValueError, match="fault plan"):
            run_chaos("algorithm2", g, FaultPlan(), sim=SimConfig(fault_plan=plan))

    def test_loose_keywords_rejected(self):
        g = line_udg(3)
        for loose in ({"seed": 1}, {"loss_rate": 0.1}, {"transport": None},
                      {"engine": "event"}):
            with pytest.raises(TypeError):
                run_chaos("algorithm2", g, FaultPlan(), **loose)

    def test_default_sim_runs_over_the_transport(self):
        g = connected_random_udg(24, 3.8, seed=1)
        report = run_chaos("algorithm2", g, FaultPlan())
        assert report.valid
        assert report.seed is None
        assert report.control_messages > 0

    def test_report_summary_shape(self):
        g = connected_random_udg(24, 3.8, seed=1)
        report = run_chaos(
            "algorithm2", g, FaultPlan(), sim=SimConfig(seed=1, transport=True)
        )
        summary = report.summary()
        assert summary["valid"] is True
        assert summary["nodes"] == 24
        assert summary["survivors"] == 24
        assert summary["epochs"] >= 1
