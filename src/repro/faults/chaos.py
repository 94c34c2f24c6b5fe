"""The chaos harness: run a backbone algorithm under a fault plan.

The harness knows two things the raw algorithms do not:

* which nodes are *expected* to survive — derivable statically from the
  declarative :class:`~repro.faults.plan.FaultPlan`; and
* that validity must hold on the **surviving subgraph**: a WCDS of the
  original graph is worthless if its connectors crashed.

``run_chaos`` runs the requested algorithm over the reliable transport
with the plan injected, then verifies the result is a valid WCDS of the
surviving subgraph.  If a run fails (deadlock detected by the livelock
guard, broken election tree, undecided nodes, or an invalid backbone),
the harness restarts the *epoch*: it re-runs on the surviving induced
subgraph.  Because all scheduled faults have fired by then, a retry
epoch faces only ambient loss, which the transport masks — so the loop
converges (``max_epochs`` bounds it defensively).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.faults.plan import Crash, FaultPlan, LossBurst, Partition
from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import is_connected
from repro.obs.flightrec import flight_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import SimConfig

#: Algorithms the chaos harness can drive (backbone registry names).
CHAOS_ALGORITHMS = ("algorithm1", "algorithm2")


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    algorithm: str
    seed: Optional[int]
    nodes: int
    survivors: FrozenSet[Hashable]
    valid: bool
    epochs: int
    dominators: FrozenSet[Hashable] = frozenset()
    messages_total: int = 0
    control_messages: int = 0
    payload_messages: int = 0
    retransmissions: int = 0
    duplicates_dropped: int = 0
    suspected_events: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def survivor_count(self) -> int:
        return len(self.survivors)

    def summary(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "nodes": self.nodes,
            "survivors": len(self.survivors),
            "valid": self.valid,
            "epochs": self.epochs,
            "backbone": len(self.dominators),
            "messages": self.messages_total,
            "control_messages": self.control_messages,
            "retransmissions": self.retransmissions,
            "notes": list(self.notes),
        }


def choose_crash_victims(
    graph: Graph, count: int, rng: random.Random
) -> Tuple[Hashable, ...]:
    """Pick ``count`` nodes whose removal keeps the rest connected.

    Greedy with connectivity re-checks; prefers non-cut nodes so the
    surviving subgraph stays a sensible WCDS instance.
    """
    victims: List[Hashable] = []
    candidates = list(canonical_order(graph.nodes()))
    rng.shuffle(candidates)
    for node in candidates:
        if len(victims) >= count:
            break
        trial = set(victims) | {node}
        remaining = [n for n in graph.nodes() if n not in trial]
        if not remaining:
            continue
        if is_connected(graph.subgraph(remaining)):
            victims.append(node)
    return tuple(victims)


def default_fault_plan(
    graph: Graph,
    *,
    loss: float = 0.0,
    crashes: int = 2,
    partition: bool = True,
    seed: int = 0,
    crash_times: Tuple[float, ...] = (4.0, 8.0),
    partition_window: Tuple[float, float] = (3.0, 12.0),
) -> FaultPlan:
    """The regression-matrix plan: a loss burst, mid-phase crashes, and
    one healed partition.

    ``loss`` becomes a burst covering the early protocol phases (the
    ambient ``SimConfig.loss_rate`` is the steady-state counterpart);
    crash victims are chosen so the survivors stay connected; the
    partition cuts a random connected ball off for a while, then heals.
    A ``loss`` outside ``[0, 1)`` or a negative ``crashes`` raises
    ``ValueError``.
    """
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1), got {loss!r}")
    if crashes < 0:
        raise ValueError(f"crashes must be non-negative, got {crashes!r}")
    rng = random.Random(seed)
    victims = choose_crash_victims(graph, crashes, rng)
    crash_events = tuple(
        Crash(crash_times[i % len(crash_times)], node)
        for i, node in enumerate(victims)
    )
    bursts = (LossBurst(0.0, 20.0, loss),) if loss > 0.0 else ()
    partitions: Tuple[Partition, ...] = ()
    if partition and graph.num_nodes >= 4:
        nodes = list(canonical_order(graph.nodes()))
        center = nodes[rng.randrange(len(nodes))]
        group = {center}
        frontier = [center]
        limit = max(2, graph.num_nodes // 4)
        while frontier and len(group) < limit:
            current = frontier.pop(0)
            for nbr in canonical_order(graph.adjacency(current)):
                if nbr not in group and len(group) < limit:
                    group.add(nbr)
                    frontier.append(nbr)
        start, end = partition_window
        partitions = (Partition(start, end, frozenset(group)),)
    return FaultPlan(bursts=bursts, crashes=crash_events, partitions=partitions)


def run_chaos(
    algorithm: str,
    graph: Graph,
    plan: FaultPlan,
    *,
    sim: Optional[SimConfig] = None,
    tracer=None,
    registry=None,
    max_epochs: int = 3,
) -> ChaosReport:
    """Run ``algorithm`` under ``plan`` and verify the surviving WCDS.

    ``sim`` is the radio environment of every epoch (``None`` means
    ``SimConfig(transport=True)``: the reliable transport, no ambient
    loss).  The harness sets its ``fault_plan`` — ``plan`` on the first
    epoch, none on a retry — and derives each epoch's seed from
    ``sim.seed``, so a ``sim`` that already carries a fault plan is a
    :class:`ValueError`.

    Returns a :class:`ChaosReport`; ``report.valid`` is the headline
    verdict.  ``registry`` (created internally when omitted) is used to
    account messages even for epochs that abort mid-run.  A
    ``max_epochs`` below 1 is a :class:`ValueError`.
    """
    from repro.backbone import build
    from repro.obs.registry import MetricsRegistry
    from repro.sim.config import SimConfig
    from repro.transport.reliable import CONTROL_KINDS
    from repro.wcds.base import is_weakly_connected_dominating_set

    if max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs!r}")
    if sim is None:
        sim = SimConfig(transport=True)
    elif sim.fault_plan:
        raise ValueError(
            "run_chaos sets the fault plan itself: pass it as `plan`, "
            "not in sim.fault_plan"
        )
    seed = sim.seed
    if registry is None:
        registry = MetricsRegistry()
    expected_dead = plan.final_dead()
    survivors = frozenset(n for n in graph.nodes() if n not in expected_dead)
    if not survivors:
        raise ValueError("fault plan kills every node")
    surviving_graph = graph.subgraph(survivors)
    if not is_connected(surviving_graph):
        raise ValueError("fault plan disconnects the surviving subgraph")
    report = ChaosReport(
        algorithm=algorithm,
        seed=seed,
        nodes=graph.num_nodes,
        survivors=survivors,
        valid=False,
        epochs=0,
    )
    current_graph: Graph = graph
    current_plan = plan
    for epoch in range(max_epochs):
        report.epochs = epoch + 1
        epoch_seed = None if seed is None else seed + 7919 * epoch
        config = replace(sim, seed=epoch_seed, fault_plan=current_plan)
        before = _message_totals(registry)
        result = None
        try:
            result = build(
                algorithm, current_graph, sim=config, tracer=tracer,
                registry=registry,
            )
        except (RuntimeError, ValueError) as exc:
            report.notes.append(f"epoch {epoch + 1}: {exc}")
            flight_record(
                "chaos_epoch_failed",
                algorithm=algorithm,
                epoch=epoch + 1,
                error=str(exc),
            )
        after = _message_totals(registry)
        _accumulate(report, before, after, CONTROL_KINDS)
        if result is not None:
            totals = result.meta.get("transport_totals") or {}
            report.retransmissions += int(totals.get("retransmissions", 0))
            report.duplicates_dropped += int(totals.get("duplicates_dropped", 0))
            report.suspected_events += int(totals.get("suspected_events", 0))
        if result is not None:
            doms = frozenset(result.dominators) & survivors
            if doms and is_weakly_connected_dominating_set(surviving_graph, doms):
                report.valid = True
                report.dominators = doms
                return report
            report.notes.append(
                f"epoch {epoch + 1}: backbone invalid on survivors"
            )
        # Restart on the surviving subgraph: every scheduled fault has
        # fired, so the retry faces only ambient loss.
        current_graph = surviving_graph
        current_plan = FaultPlan()
    return report


def _message_totals(registry) -> Dict[str, int]:
    """Per-kind ``sim_messages_total`` snapshot from a registry."""
    totals: Dict[str, int] = {}
    for key, child in registry.children("sim_messages_total").items():
        kind = dict(key).get("kind", "")
        totals[kind] = totals.get(kind, 0) + int(child.value)
    return totals


def _accumulate(
    report: ChaosReport,
    before: Dict[str, int],
    after: Dict[str, int],
    control_kinds: FrozenSet[str],
) -> None:
    for kind in after:
        delta = after[kind] - before.get(kind, 0)
        if delta <= 0:
            continue
        report.messages_total += delta
        if kind in control_kinds:
            report.control_messages += delta
        else:
            report.payload_messages += delta
