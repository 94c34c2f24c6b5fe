"""Tree aggregation (convergecast) over the election spanning tree.

Algorithm I's COMPLETE echo is one instance of a general pattern the
backbone enables: aggregate a value up the rooted spanning tree in O(n)
messages.  This module provides the general protocol — each leaf sends
its value; each internal node waits for all children, combines, and
forwards — used for network-size counting, maximum-load queries, or any
commutative/associative reduction.

O(n) messages (one AGGREGATE unicast per non-root node) and O(depth)
time, the textbook convergecast costs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Hashable, Optional, Tuple

from repro.graphs.graph import Graph
from repro.election.protocol import ElectionResult, elect_leader
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats

AGGREGATE = "AGGREGATE"

Combine = Callable[[Any, Any], Any]


class ConvergecastNode(ProtocolNode):
    """One node of the tree aggregation."""

    def __init__(
        self,
        ctx: NodeContext,
        parent: Optional[Hashable],
        children: FrozenSet[Hashable],
        value: Any,
        combine: Combine,
    ) -> None:
        super().__init__(ctx)
        self.parent = parent
        self.children = set(children)
        self.combine = combine
        self.accumulator = value
        self._pending = set(children)
        self.done = False

    def on_start(self) -> None:
        self._maybe_forward()

    def on_message(self, msg: Message) -> None:
        if msg.kind != AGGREGATE or msg.sender not in self._pending:
            return
        self._pending.discard(msg.sender)
        self.accumulator = self.combine(self.accumulator, msg["value"])
        self._maybe_forward()

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Transport liveness hook: a dead child's value is lost but
        the aggregation still completes on the survivors."""
        if peer in self._pending:
            self._pending.discard(peer)
            self._maybe_forward()

    def _maybe_forward(self) -> None:
        if self._pending or self.done:
            return
        self.done = True
        if self.parent is not None:
            self.ctx.send(self.parent, AGGREGATE, value=self.accumulator)

    def result(self) -> Dict[str, object]:
        return {"value": self.accumulator, "done": self.done}


def converge_cast(
    graph: Graph,
    values: Dict[Hashable, Any],
    combine: Combine,
    *,
    election: Optional[ElectionResult] = None,
    sim: Optional[SimConfig] = None,
) -> Tuple[Any, SimStats]:
    """Aggregate ``values`` up the spanning tree; returns the root's
    combined value and the run's stats.

    ``combine`` must be commutative and associative (children arrive in
    arbitrary order).  An existing :class:`ElectionResult` can be
    reused; otherwise a fresh election runs first (its messages are not
    counted in the returned stats — pass the election in to amortize).
    """
    config = sim or SimConfig()
    if set(values) != set(graph.nodes()):
        raise ValueError("values must cover every node exactly")
    if election is None:
        election = elect_leader(graph, sim=config)
    simulator = make_simulator(
        graph,
        lambda ctx: ConvergecastNode(
            ctx,
            election.parent.get(ctx.node_id),
            election.children.get(ctx.node_id, frozenset()),
            values[ctx.node_id],
            combine,
        ),
        config,
    )
    stats = simulator.run()
    results = simulator.collect_results()
    if not results[election.leader]["done"]:
        raise RuntimeError("aggregation never completed at the root")
    return results[election.leader]["value"], stats


def count_nodes(graph: Graph, **kwargs) -> Tuple[int, SimStats]:
    """Network-size estimation: every node contributes 1."""
    values = {node: 1 for node in graph.nodes()}
    return converge_cast(graph, values, lambda a, b: a + b, **kwargs)


def tree_maximum(graph: Graph, values: Dict[Hashable, Any], **kwargs):
    """Maximum of per-node values (e.g. battery load, queue depth)."""
    return converge_cast(graph, values, max, **kwargs)
