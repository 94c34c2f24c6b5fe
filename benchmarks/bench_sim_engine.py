"""Speedup and exactness gates for the batched simulator core.

``repro.sim.batched`` batches same-tick broadcast fan-out through CSR
audience tables.  Its contract has two halves, gated here the same way
the kernel gates work (cross-validate first, then time):

* **Exactness** — every run is *bit-identical* to the event-driven
  oracle: SimStats, per-node results, traces, and the final WCDS, on
  clean runs and under fault plans, the reliable transport, and
  perturbed tie-break schedules.
* **Speed** — on an engine-dominated workload (a flood wave at n=2000,
  where handlers do near-zero Python work and wall-clock is pure
  event-queue overhead) the batched engine must win >= 5x.  Algorithm
  II is reported alongside with an honest softer floor: its handlers
  (dominator-list bookkeeping) are irreducible Python work shared by
  both engines, so Amdahl caps the whole-protocol win well below the
  engine-only ratio.

Run with ``pytest benchmarks/bench_sim_engine.py``; the gates are
plain asserts so CI fails when a regression eats the speedup.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Callable

import pytest

from bench_utils import show
from repro.faults import default_fault_plan
from repro.graphs.generators import connected_random_udg
from repro.graphs.udg import build_udg
from repro.routing import flood_protocol
from repro.sim import ProtocolNode, SimConfig, run_protocol
from repro.sim.engine import perturbed_schedule
from repro.wcds.algorithm2 import algorithm2_distributed

#: Speedup floors asserted by the gates.
FLOOD_FLOOR = 5.0
ALG2_FLOOR = 1.5


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class FloodNode(ProtocolNode):
    """One-shot flood: rebroadcast the wave the first time it arrives.

    The handler is as close to free as a protocol gets, so the run's
    wall-clock is almost entirely simulator-core overhead — the
    workload the batched fan-out path exists for.
    """

    def on_start(self):
        self.hops = None
        if self.node_id == 0:
            self.hops = 0
            self.ctx.broadcast("WAVE", hops=0)

    def on_message(self, msg):
        if self.hops is None:
            self.hops = msg["hops"] + 1
            self.ctx.broadcast("WAVE", hops=self.hops)

    def result(self):
        return {"hops": self.hops}


def _stats_key(stats):
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}


def _flood(graph, engine):
    results, stats = run_protocol(
        graph, FloodNode, SimConfig(engine=engine)
    )
    return results, _stats_key(stats)


def test_flood_wave_speedup_n2000():
    # Dense regime: avg degree ~40, so one wave is ~80k deliveries.
    graph = connected_random_udg(2000, 12.0, seed=1)

    # Exact cross-validation before timing anything.
    batched = _flood(graph, "batched")
    event = _flood(graph, "event")
    assert batched == event, "flood outcome diverged between engines"
    assert all(row["hops"] is not None for row in batched[0].values())

    t_event = best_of(lambda: _flood(graph, "event"))
    t_batched = best_of(lambda: _flood(graph, "batched"))
    speedup = t_event / t_batched
    show(
        "Flood wave, n=2000 (avg degree ~40)",
        [
            {"engine": "event (oracle)", "ms": t_event * 1e3, "speedup": 1.0},
            {"engine": "batched", "ms": t_batched * 1e3, "speedup": speedup},
        ],
    )
    assert speedup >= FLOOD_FLOOR, (
        f"batched engine only {speedup:.1f}x faster than the event oracle "
        f"on the flood wave (floor {FLOOD_FLOOR}x)"
    )


def test_algorithm2_speedup_and_exactness_n2000():
    graph = connected_random_udg(2000, 16.0, seed=2)

    def build(engine):
        result = algorithm2_distributed(graph, sim=SimConfig(engine=engine))
        return (
            tuple(sorted(result.dominators)),
            tuple(sorted(result.mis_dominators)),
            _stats_key(result.meta["stats"]),
        )

    batched = build("batched")
    event = build("event")
    assert batched == event, "Algorithm II outcome diverged between engines"

    t_event = best_of(lambda: build("event"), repeats=2)
    t_batched = best_of(lambda: build("batched"), repeats=2)
    speedup = t_event / t_batched
    show(
        "Algorithm II end-to-end, n=2000",
        [
            {"engine": "event (oracle)", "s": t_event, "speedup": 1.0},
            {"engine": "batched", "s": t_batched, "speedup": speedup},
        ],
    )
    # Honest floor: protocol handlers are shared Python work, so the
    # end-to-end win is Amdahl-capped far below the engine-only ratio.
    assert speedup >= ALG2_FLOOR, (
        f"batched engine only {speedup:.2f}x faster end-to-end on "
        f"Algorithm II (floor {ALG2_FLOOR}x)"
    )


def _mixed_ids(graph):
    """``graph`` with about 30% of its int ids renamed ``s<id>``."""
    rng = random.Random(len(graph))
    names = {n: f"s{n}" if rng.random() < 0.3 else n for n in graph.nodes()}
    return build_udg({names[n]: p for n, p in graph.positions.items()})


def _alg2_key(graph, config):
    result = algorithm2_distributed(graph, sim=config)
    return tuple(sorted(result.dominators)), _stats_key(result.meta["stats"])


def _flood_key(graph, config):
    source = min(n for n in graph.nodes() if isinstance(n, int))
    outcome, stats = flood_protocol(graph, source, sim=config)
    assert outcome.covered > 1
    return outcome, _stats_key(stats)


def test_exactness_under_faults_transport_and_perturbation():
    graph = connected_random_udg(120, 5.5, seed=3)
    # Algorithm II ranks by id, so the mixed-id deployment floods.
    for deployment, protocol in ((graph, _alg2_key), (_mixed_ids(graph), _flood_key)):
        plan = default_fault_plan(deployment, loss=0.2, crashes=2, seed=3)

        def run(engine):
            config = SimConfig(
                loss_rate=0.1, seed=11, fault_plan=plan, transport=True,
                engine=engine,
            )
            with perturbed_schedule(5, None):
                return protocol(deployment, config)

        assert run("batched") == run("event"), (
            "engines diverged under fault plan + transport + perturbed ties"
        )


def test_fleet_sweep_smoke():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("fleet smoke needs >= 2 CPUs")
    from repro.sim.fleet import BackboneTrial, run_fleet

    graph = connected_random_udg(100, 5.0, seed=4)
    seeds = list(range(8))
    trial = BackboneTrial(algorithm="algorithm2")
    spawned = run_fleet(graph, trial, seeds, workers=2)
    inline = run_fleet(graph, trial, seeds, workers=0)
    assert spawned == inline, "fleet rows diverge from the inline baseline"
