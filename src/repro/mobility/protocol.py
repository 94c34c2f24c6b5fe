"""Beacon-based distributed MIS maintenance.

§4.2's maintenance sketch ("maintain the MIS in the unit-disk graph at
all time", changes within three hops) is a local repair rule; this runs
it for the MIS core on the simulator.  :class:`repro.shard.ShardedBackbone`
maintains exact Algorithm II, which met the 3-hop bound on M1–M3 but
not on row-major ``jittered_grid(10000)`` (86–95 of 480 moves of up to
0.3 R flipped nodes more than 3 hops away).  The protocol:

* every node broadcasts a periodic BEACON carrying its role
  (dominator / gray) and whether it currently hears a dominator;
* each period a node re-evaluates from its (freshness-pruned) neighbor
  table:
  - **demotion** — a dominator hearing a lower-id dominator neighbor
    steps down (independence repair);
  - **promotion** — an uncovered node promotes itself iff its id is
    lowest among its uncovered neighbors (the id-greedy rule, so two
    adjacent uncovered nodes never both promote).

After topology changes stop, roles converge to a maximal independent
set (a dominating set) within a few beacon periods — the convergence
tests freeze mobility and assert validity after a bounded number of
periods.  Stale entries age out, so the protocol also absorbs silent
node departures without any explicit leave message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.graphs.graph import Graph
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.latency import LatencyModel
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode

BEACON = "BEACON"
BEACON_TIMER = "beacon"

DOMINATOR = "dominator"
GRAY = "gray"


@dataclass
class _NeighborRecord:
    role: str
    covered: bool
    heard_at: float


class MisMaintenanceNode(ProtocolNode):
    """One node of the beacon-based maintenance protocol."""

    def __init__(
        self,
        ctx: NodeContext,
        initial_role: str,
        period: float = 2.0,
        freshness: float = 5.0,
    ) -> None:
        super().__init__(ctx)
        if initial_role not in (DOMINATOR, GRAY):
            raise ValueError(f"unknown role {initial_role!r}")
        self.role = initial_role
        self.period = period
        self.freshness = freshness
        self.neighbors: Dict[Hashable, _NeighborRecord] = {}
        self.covered = initial_role == DOMINATOR

    def on_start(self) -> None:
        self._beacon()
        self.ctx.set_timer(self.period, BEACON_TIMER)

    def on_message(self, msg: Message) -> None:
        if msg.kind != BEACON:
            return
        self.neighbors[msg.sender] = _NeighborRecord(
            role=msg["role"], covered=msg["covered"], heard_at=self.ctx.now
        )

    def on_timer(self, tag: str) -> None:
        if tag != BEACON_TIMER:
            return
        self._prune_stale()
        self._reevaluate()
        self._beacon()
        self.ctx.set_timer(self.period, BEACON_TIMER)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def _prune_stale(self) -> None:
        horizon = self.ctx.now - self.freshness
        live = self.ctx.neighbors
        self.neighbors = {
            node: record
            for node, record in self.neighbors.items()
            if record.heard_at >= horizon and node in live
        }

    def _fresh_dominators(self):
        return [n for n, rec in self.neighbors.items() if rec.role == DOMINATOR]

    def _reevaluate(self) -> None:
        dominator_neighbors = self._fresh_dominators()
        if self.role == DOMINATOR:
            if any(n < self.node_id for n in dominator_neighbors):
                self.role = GRAY  # independence repair: higher id yields
            self.covered = self.role == DOMINATOR or bool(dominator_neighbors)
            return
        self.covered = bool(dominator_neighbors)
        if self.covered:
            return
        # Uncovered: promote iff lowest id among uncovered neighbors.
        uncovered_lower = [
            n
            for n, rec in self.neighbors.items()
            if not rec.covered and rec.role == GRAY and n < self.node_id
        ]
        if not uncovered_lower:
            self.role = DOMINATOR
            self.covered = True

    def _beacon(self) -> None:
        self.ctx.broadcast(BEACON, role=self.role, covered=self.covered)

    def result(self) -> Dict[str, object]:
        return {"role": self.role, "covered": self.covered}


class MaintenanceSimulation:
    """Driver: a simulator whose topology can change between windows.

    Usage::

        driver = MaintenanceSimulation(udg)         # seeds roles from
        driver.run_for(10.0)                        # the id-greedy MIS
        udg.move_node(3, Point(...))                # or a mobility model
        driver.run_for(10.0)
        assert driver.is_valid_mis()
    """

    def __init__(
        self,
        graph: Graph,
        *,
        period: float = 2.0,
        latency: Optional[LatencyModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        from repro.mis.centralized import greedy_mis

        initial = greedy_mis(graph)
        self.graph = graph
        self.period = period
        self.sim = make_simulator(
            graph,
            lambda ctx: MisMaintenanceNode(
                ctx,
                DOMINATOR if ctx.node_id in initial else GRAY,
                period=period,
            ),
            SimConfig(latency=latency, seed=seed),
        )
        self._started = False

    def run_for(self, duration: float) -> None:
        """Advance the protocol by ``duration`` simulated time."""
        if not self._started:
            self._started = True
            self.sim.run(until=duration)
        else:
            self.sim.run(until=self.sim.now + duration)

    def roles(self) -> Dict[Hashable, str]:
        """Current role of every node."""
        return {
            node: state.role for node, state in self.sim.nodes.items()
        }

    def dominators(self) -> set:
        """Current dominator set."""
        return {n for n, role in self.roles().items() if role == DOMINATOR}

    def is_valid_mis(self) -> bool:
        """Whether current roles form an independent dominating set."""
        from repro.mis.properties import is_maximal_independent_set

        return is_maximal_independent_set(self.graph, self.dominators())

    def settle(self, max_periods: int = 30) -> int:
        """Run until the roles form a valid MIS; returns periods used.

        Raises ``RuntimeError`` if convergence takes longer than
        ``max_periods`` beacon periods — a regression tripwire, since
        the id-priority rules converge in a handful of periods on the
        topologies the tests use.
        """
        for elapsed in range(1, max_periods + 1):
            self.run_for(self.period)
            if self.is_valid_mis():
                return elapsed
        raise RuntimeError(f"no convergence within {max_periods} periods")
