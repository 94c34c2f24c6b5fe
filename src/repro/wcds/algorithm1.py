"""Algorithm I: WCDS via level-based-ranked MIS (Section 4.1).

Three phases, exactly as the paper structures them:

1. **Leader election** — elect the minimum-id node and build a spanning
   tree rooted at it (``repro.election``); O(n log n) messages dominate
   the algorithm's message complexity.
2. **Level calculation** — the root announces level 0; every node, on
   hearing its parent's level, takes level+1 and announces.  Nodes
   record the levels of all neighbors (that is how the ``(level, id)``
   ranks become locally known), and a COMPLETE echo climbs the tree so
   the root knows when to start phase 3.  Exactly one LEVEL broadcast
   per node plus one COMPLETE unicast per non-root node: O(n) messages.
3. **Color marking** — the distributed greedy-MIS marking under the
   ``(level, id)`` ranking (``repro.mis.distributed``): the root marks
   itself black and broadcasts BLACK; whites go gray on the first BLACK
   they hear; a white goes black once all lower-ranked neighbors
   reported GRAY.  One declaration per node: O(n) messages.

Theorem 5: the resulting MIS is a WCDS.  Lemma 7: its size is at most
5·opt.  Theorem 8: its black edges form a sparse spanner.

The centralized twin computes the same set directly (BFS levels from the
minimum id node + rank-greedy MIS); under the synchronous latency model
the distributed run provably produces the identical set, which the
property tests check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, is_connected
from repro.mis.centralized import greedy_mis
from repro.mis.distributed import MisNode
from repro.mis.ranking import level_ranking, rank_by
from repro.election.protocol import ElectionResult, elect_leader
from repro.obs.cost import annotate_phase as _annotate_phase
from repro.obs.tracing import get_tracer
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats
from repro.transport.reliable import aggregate_transport
from repro.wcds.base import BackboneResult, WCDSResult

LEVEL = "LEVEL"
COMPLETE = "COMPLETE"


def algorithm1_centralized(graph: Graph, root: Optional[Hashable] = None) -> WCDSResult:
    """Centralized reference for Algorithm I.

    ``root`` defaults to the minimum node id — the node the election
    phase elects.  Levels are BFS hop distances from the root (the BFS
    tree is the spanning tree the synchronous election builds).
    """
    if graph.num_nodes == 0:
        raise ValueError("Algorithm I requires a non-empty graph")
    if not is_connected(graph):
        raise ValueError("Algorithm I requires a connected graph")
    if root is None:
        root = min(graph.nodes())
    levels = bfs_distances(graph, root)
    ranking = level_ranking(graph, levels)
    mis = greedy_mis(graph, ranking)
    return WCDSResult(
        dominators=frozenset(mis),
        mis_dominators=frozenset(mis),
        meta={"leader": root, "levels": levels},
    )


class LevelCalculationNode(ProtocolNode):
    """Phase 2 node: learn own level, record neighbor levels, echo
    COMPLETE up the tree."""

    def __init__(
        self,
        ctx: NodeContext,
        parent: Optional[Hashable],
        children: FrozenSet[Hashable],
    ) -> None:
        super().__init__(ctx)
        self.parent = parent
        self.children = set(children)
        self.level: Optional[int] = None
        self.neighbor_levels: Dict[Hashable, int] = {}
        self._pending_complete: Set[Hashable] = set(children)
        self.tree_complete = False
        self._parent_down = False

    def on_start(self) -> None:
        if self.parent is None:
            self._announce(0)

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind == LEVEL:
            sender = msg.sender
            level = msg.data["level"]
            self.neighbor_levels[sender] = level
            # Our parent levels us; if it crashed before doing so, any
            # leveled neighbor does.
            if self.level is None and (sender == self.parent or self._parent_down):
                self._announce(level + 1)
        elif kind == COMPLETE:
            self._pending_complete.discard(msg.sender)
            self._maybe_complete()

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Transport liveness hook: stop waiting for a dead child's
        COMPLETE; if our parent died before leveling us, adopt the
        smallest level already heard from any neighbor."""
        self._pending_complete.discard(peer)
        if peer == self.parent and self.level is None:
            self._parent_down = True
            if self.neighbor_levels:
                self._announce(min(self.neighbor_levels.values()) + 1)
        self._maybe_complete()

    def _announce(self, level: int) -> None:
        self.level = level
        self.ctx.broadcast(LEVEL, level=level)
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self.level is None or self._pending_complete or self.tree_complete:
            return
        self.tree_complete = True
        if self.parent is not None:
            self.ctx.send(self.parent, COMPLETE)

    def result(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "neighbor_levels": dict(self.neighbor_levels),
            "complete": self.tree_complete,
        }


def _run_level_phase(
    graph: Graph,
    election: ElectionResult,
    config: SimConfig,
    *,
    registry=None,
) -> Tuple[Dict[Hashable, int], SimStats, FrozenSet[Hashable]]:
    """Run phase 2; returns ``(levels, stats, crashed)``.

    Under a faulty config, completeness is only required of the
    survivors and the COMPLETE-echo barrier is waived (each phase is
    already run to quiescence, which is a stronger barrier).
    """
    sim = make_simulator(
        graph,
        lambda ctx: LevelCalculationNode(
            ctx,
            election.parent.get(ctx.node_id),
            election.children.get(ctx.node_id, frozenset()),
        ),
        config,
        registry=registry,
    )
    stats = sim.run()
    results = sim.collect_results()
    crashed = sim.crashed
    survivors = [n for n in graph.nodes() if n not in crashed]
    unleveled = [n for n in survivors if results[n]["level"] is None]
    if unleveled:
        raise RuntimeError(f"level calculation did not reach: {unleveled!r}")
    if not config.faulty and not results[election.leader]["complete"]:
        raise RuntimeError("COMPLETE echo never reached the root")
    levels = {
        n: results[n]["level"]
        for n in results
        if results[n]["level"] is not None
    }
    return levels, stats, crashed


def algorithm1_distributed(
    graph: Graph,
    *,
    tracer=None,
    registry=None,
    sim: Optional[SimConfig] = None,
) -> BackboneResult:
    """Run the full three-phase distributed Algorithm I.

    Phases run back to back (each simulated to quiescence — in a real
    network the COMPLETE echo provides the same barrier).  The result's
    ``meta`` carries the leader, levels, and per-phase plus aggregate
    message statistics for the complexity experiments.

    Telemetry: each phase runs inside a span of ``tracer`` (default:
    the process tracer, a no-op unless ``repro.obs.set_tracer`` was
    called) annotated with its message and round totals, and a
    ``registry`` receives per-kind ``sim_messages_total`` counters plus
    per-phase ``protocol_phase_messages_total`` /
    ``protocol_phase_rounds_total``.
    """
    config = sim or SimConfig()
    plan = config.fault_plan
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("algorithm1", n=graph.num_nodes) as run_span:
        # Each phase is a separate simulation run back to back, so the
        # fault plan's clock is rebased at every phase boundary: a
        # crash scheduled mid-run lands in whichever phase is active
        # at that simulated time.
        elapsed = 0.0
        with tracer.span("election") as span:
            election = elect_leader(
                graph, sim=config.with_plan(plan.advanced(elapsed)),
                registry=registry,
            )
            _annotate_phase(span, registry, "1", "election", election.stats)
            elapsed += election.stats.finish_time
        with tracer.span("levels") as span:
            levels, level_stats, crashed = _run_level_phase(
                graph, election, config.with_plan(plan.advanced(elapsed)),
                registry=registry,
            )
            _annotate_phase(span, registry, "1", "levels", level_stats)
            elapsed += level_stats.finish_time
        with tracer.span("marking") as span:
            # Under faults only the nodes that learned a level are ranked.
            ranking = rank_by(levels, levels.__getitem__)
            marking_sim = make_simulator(
                graph, lambda ctx: MisNode(ctx, ranking),
                config.with_plan(plan.advanced(elapsed)),
                registry=registry,
            )
            marking_stats = marking_sim.run()
            _annotate_phase(span, registry, "1", "marking", marking_stats)
        results = marking_sim.collect_results()
        crashed = marking_sim.crashed
        survivors = [n for n in graph.nodes() if n not in crashed]
        colors = {n: res["color"] for n, res in results.items()}
        undecided = [n for n in survivors if colors[n] == "white"]
        if undecided:
            raise RuntimeError(f"color marking did not terminate: {undecided!r}")
        mis = frozenset(n for n in survivors if colors[n] == "black")
        phase_stats = {
            "election": election.stats,
            "levels": level_stats,
            "marking": marking_stats,
        }
        total_messages = sum(stats.messages_sent for stats in phase_stats.values())
        finish_time = sum(stats.finish_time for stats in phase_stats.values())
        run_span.set_attr("messages", total_messages)
        run_span.set_attr("rounds", finish_time)
        run_span.set_attr("backbone", len(mis))
    meta = {
        "leader": election.leader,
        "levels": levels,
        "colors": colors,
        "phase_stats": phase_stats,
        "total_messages": total_messages,
        "finish_time": finish_time,
    }
    if config.transport:
        meta["transport_totals"] = aggregate_transport(results)
    if crashed:
        meta["crashed"] = crashed
    return BackboneResult(
        dominators=mis,
        mis_dominators=mis,
        algorithm="algorithm1",
        meta=meta,
    )
