"""Fleet runner: the one seed sweep, over spawn workers.

Monte-Carlo studies (backbone-size distributions, chaos matrices,
empirical approximation ratios, the Theorem 10/12 sweeps) repeat the
same protocol on the same topology under different seeds.
:func:`run_fleet` is the one sweep they all call (``repro montecarlo``,
:func:`repro.opt.measure_ratios`, the chaos and theorem benchmarks);
:func:`repro.analysis.aggregate_rows` folds its rows.
:class:`FleetRunner` executes a sweep over ``spawn`` worker processes
while shipping the topology exactly once:

* node positions live in one :class:`~repro.workers.SharedPositions`
  float64 block; each worker rebuilds the unit-disk graph from the
  shared rows (float64 is exact, so every worker sees the identical
  edge set) and keeps it for its whole seed range;
* trials are small picklable values (:class:`BackboneTrial`,
  :class:`ChaosTrial`, or any module-level callable with the same
  signature) — only the trial object and the seed chunk cross the pipe,
  and an unpicklable one is refused with a ``TypeError`` before any
  chunk is sent;
* the workers are a :class:`~repro.workers.WorkerGroup`, the substrate
  the :class:`~repro.shard.pool.ShardServePool` runs on too: this
  module supplies only the ``run`` handler, and telemetry frames,
  stitched traces, death accounting and the close handshake are the
  substrate's.

``workers=0`` runs the same handler in the group's in-process lane, on
the graph it rebuilds from the rows as a worker does — the
deterministic baseline the tests compare worker rows against (the rows
are identical: each trial reseeds everything from its seed argument).
A one-seed :func:`run_fleet` always takes that lane: it never
parallelizes, so it needs no worker and no picklable trial.  The
trials run on ``SimConfig``'s default engine, the batched core; they do
not choose one.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.graphs.udg import UnitDiskGraph
from repro.workers import WorkerClient, WorkerEnv, WorkerGroup

__all__ = [
    "BackboneTrial",
    "ChaosTrial",
    "FleetRunner",
    "FleetTrial",
    "run_fleet",
]

#: A fleet trial: ``trial(graph, seed) -> row``.  Must be picklable
#: (module-level function or dataclass instance), must derive all its
#: randomness from ``seed``, and must not mutate ``graph``.
FleetTrial = Callable[[UnitDiskGraph, int], Mapping[str, float]]


@dataclass(frozen=True)
class BackboneTrial:
    """Build one backbone per seed and report size/cost metrics.

    ``jitter`` swaps the unit latency for a per-seed
    :class:`~repro.sim.latency.UniformLatency`, turning the sweep into
    an asynchrony study (Theorem 10's size bound is latency-free, so
    the size column must stay flat while rounds move).
    """

    algorithm: str = "algorithm2"
    jitter: bool = False
    transport: bool = False

    def __call__(self, graph: UnitDiskGraph, seed: int) -> Mapping[str, float]:
        from repro.backbone import build
        from repro.sim.config import SimConfig
        from repro.sim.latency import UniformLatency

        config = SimConfig(seed=seed, transport=self.transport)
        if self.jitter:
            config = replace(config, latency=UniformLatency(seed=seed))
        result = build(self.algorithm, graph, sim=config)
        stats = result.meta.get("stats")
        row: Dict[str, float] = {
            "backbone": float(len(result.dominators)),
            "mis": float(len(result.mis_dominators)),
        }
        if stats is not None:
            row["messages"] = float(stats.messages_sent)
            row["rounds"] = float(stats.finish_time)
            row["max_per_node"] = float(stats.max_messages_per_node())
        return row


@dataclass(frozen=True)
class ChaosTrial:
    """One chaos-matrix cell per seed: plan, run, verify survivors.

    The fault plan is regenerated per seed (victims, partition ball,
    and loss burst all derive from it), so a sweep over seeds explores
    plan space on a fixed topology.
    """

    algorithm: str = "algorithm2"
    loss: float = 0.0
    crashes: int = 2
    partition: bool = True

    def __call__(self, graph: UnitDiskGraph, seed: int) -> Mapping[str, float]:
        from repro.faults.chaos import default_fault_plan, run_chaos
        from repro.sim.config import SimConfig

        plan = default_fault_plan(
            graph,
            loss=self.loss,
            crashes=self.crashes,
            partition=self.partition,
            seed=seed,
        )
        report = run_chaos(
            self.algorithm, graph, plan,
            sim=SimConfig(seed=seed, transport=True),
        )
        return {
            "valid": float(report.valid),
            "epochs": float(report.epochs),
            "survivors": float(report.survivor_count),
            "backbone": float(len(report.dominators)),
            "messages": float(report.messages_total),
            "retransmissions": float(report.retransmissions),
        }


def _rebuild_graph(
    env: WorkerEnv, radius: float, node_ids: Sequence[Hashable]
) -> UnitDiskGraph:
    """Reconstruct the parent's graph from the env's position rows.

    Row ``i`` is ``node_ids[i]``; float64 round-trips exactly, so the
    rebuilt unit-disk edge set is identical to the parent's.
    """
    from repro.geometry.point import Point

    rows = env.array
    positions = {
        node: Point(float(rows[i, 0]), float(rows[i, 1]))
        for i, node in enumerate(node_ids)
    }
    return UnitDiskGraph(positions, radius=radius)


def _run_chunk(env: WorkerEnv, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The fleet's handler: ``("run", trial, seeds, ctx)`` →
    ``("rows", rows, frame|None)``.  The graph is rebuilt from the
    position rows on the first chunk and kept in ``env.state``."""
    _, trial, seeds, ctx = message
    graph = env.state.get("graph")
    if graph is None:
        graph = env.state["graph"] = _rebuild_graph(env, *env.args)
    tel = env.tel
    if tel is None:
        return ("rows", [trial(graph, seed) for seed in seeds], None)
    trials = tel.registry.counter("fleet_trials_total", "seeded trials executed")
    rows: List[Mapping[str, float]] = []
    with tel.spans.span("fleet.run_chunk", parent=ctx, seeds=len(seeds)):
        for seed in seeds:
            rows.append(trial(graph, seed))
            trials.inc()
    tel.batches.inc()
    return ("rows", rows, env.frame())


def _require_picklable(trial: FleetTrial) -> None:
    try:
        pickle.dumps(trial)
    except Exception as failure:
        raise TypeError(
            "fleet trials run in worker processes, so the trial must be "
            "a picklable top-level function or dataclass instance "
            f"(got {trial!r}: {failure})"
        ) from failure


def _default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, min(cpus - 1, 8))


class FleetRunner(WorkerClient):
    """Execute seeded trials across spawn workers on one shared topology.

    ``workers=None`` sizes the fleet from the CPU count; ``workers=0``
    runs in-process (one lane, deterministic baseline).  With a
    ``registry`` the parent absorbs worker telemetry frames into it and
    stitches worker spans (``export_trace``), like the shard pool.
    """

    def __init__(
        self,
        graph: UnitDiskGraph,
        *,
        workers: Optional[int] = None,
        registry: Any = None,
    ) -> None:
        self.graph = graph
        self.workers = _default_workers() if workers is None else workers
        self.registry = registry
        nodes = graph.numbering().nodes
        self.group = WorkerGroup(
            handler=_run_chunk,
            count=self.workers,
            prefix="f",
            rows=[graph.positions[node] for node in nodes],
            args=(graph.radius, nodes),
            registry=registry,
            died="fleet worker {} died mid-sweep",
            deaths_metric="fleet_worker_deaths_total",
        )

    def run(
        self, trial: FleetTrial, seeds: Sequence[int]
    ) -> List[Mapping[str, float]]:
        """Run ``trial`` for every seed; rows come back in seed order.

        Seeds are split into one contiguous chunk per worker (static
        partitioning — trials on one topology have near-uniform cost),
        all chunks run concurrently, and the rows are reassembled in
        the caller's seed order: the pump hands replies back in worker
        order, one chunk each.
        """
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("no seeds given")
        if self.workers > 0:
            _require_picklable(trial)
        group = self.group
        count = len(group.conns)
        chunk = (len(seed_list) + count - 1) // count
        starts = range(0, len(seed_list), chunk)
        rows: List[Mapping[str, float]] = []

        def collect(reply: Tuple[Any, ...]) -> None:
            rows.extend(reply[1])
            group.absorb(reply[2])

        with group.span(
            "fleet.dispatch", seeds=len(seed_list), workers=len(starts)
        ) as ctx:
            group.pump({
                i: deque([("run", trial, seed_list[lo : lo + chunk], ctx)])
                for i, lo in enumerate(starts)
            }, "rows", collect)
        return rows


def run_fleet(
    graph: UnitDiskGraph,
    trial: FleetTrial,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    registry: Any = None,
) -> List[Mapping[str, float]]:
    """Run one seed sweep on a fresh fleet and tear it down.

    Fewer than two seeds run inline whatever worker count is asked
    for (a negative one is still a ``ValueError``).  An unpicklable
    trial is refused before any worker starts.
    """
    seed_list = list(seeds)
    if workers is None:
        workers = _default_workers()
    if len(seed_list) < 2 and workers > 0:
        workers = 0
    if workers > 0:
        _require_picklable(trial)
    with FleetRunner(graph, workers=workers, registry=registry) as fleet:
        return fleet.run(trial, seed_list)
