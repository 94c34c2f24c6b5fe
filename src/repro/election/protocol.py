"""Distributed leader election with spanning-tree construction.

The protocol is extinction ("wave") election by minimum id:

* every node starts as its own candidate and broadcasts ``ELECT`` with
  the best (smallest) leader id it knows;
* a node hearing a smaller id adopts it, re-parents onto the neighbor it
  heard it from (unicasting ``JOIN`` to the new parent and ``LEAVE`` to
  the old one so children sets stay consistent), and re-broadcasts;
* at quiescence exactly one node still believes in itself — the minimum
  id node — and the parent pointers form a spanning tree rooted there.
  Under the synchronous (fixed-latency) model the tree is the BFS tree
  of the leader, so tree levels equal hop distances from the root.

Each node transmits one ``ELECT`` per improvement of its best-known id.
With ids in random order a node improves O(log n) times in expectation,
matching the O(n log n) message bound the paper cites for election; the
adversarial worst case (ids decreasing along a chain) is Θ(n) per node,
which the complexity benchmark demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import is_connected
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats

ELECT = "ELECT"
JOIN = "JOIN"
LEAVE = "LEAVE"
PROBE = "PROBE"


class ElectionNode(ProtocolNode):
    """Per-node state machine for min-id extinction election."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self.best: Hashable = self.node_id
        self.parent: Optional[Hashable] = None
        self.children: Set[Hashable] = set()
        # Re-parenting emits JOIN/LEAVE unicasts that can overtake each
        # other under asynchrony; a per-sender sequence number lets the
        # receiver keep only the newest membership statement per child.
        self._seq = 0
        self._child_seq: Dict[Hashable, int] = {}

    def on_start(self) -> None:
        self.ctx.broadcast(ELECT, leader=self.best)

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        if kind == ELECT:
            leader = msg.data["leader"]
            if leader < self.best:
                self._on_elect(msg.sender, leader)
            # Most ELECT deliveries carry no better leader to a node with
            # a parent, so they stop at the first two tests.
            # Re-attachment after our parent crashed: an equally-good
            # announcement from a non-child neighbor is a valid parent.
            # (A descendant could answer and form a cycle; the
            # validation below catches that and the chaos harness
            # restarts the epoch.)
            elif (
                self.parent is None
                and leader == self.best
                and self.best != self.node_id
                and msg.sender not in self.children
            ):
                self.parent = msg.sender
                self._seq += 1
                self.ctx.send(msg.sender, JOIN, seq=self._seq)
        elif kind == PROBE:
            # An orphaned neighbor asks its vicinity to re-announce so
            # it can re-attach; answering costs one broadcast.
            self.ctx.broadcast(ELECT, leader=self.best)
        elif kind in (JOIN, LEAVE):
            sender = msg.sender
            seq = msg.data["seq"]
            if seq <= self._child_seq.get(sender, -1):
                return  # stale statement overtaken by a newer one
            self._child_seq[sender] = seq
            if kind == JOIN:
                self.children.add(sender)
            else:
                self.children.discard(sender)

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Transport liveness hook: drop a dead child; if the dead peer
        was our parent, orphan ourselves and probe for a new one."""
        self.children.discard(peer)
        if self.parent == peer:
            self.parent = None
            self.ctx.broadcast(PROBE)

    def _on_elect(self, sender: Hashable, leader: Hashable) -> None:
        self.best = leader
        if self.parent is not None:
            self._seq += 1
            self.ctx.send(self.parent, LEAVE, seq=self._seq)
        self.parent = sender
        self._seq += 1
        self.ctx.send(sender, JOIN, seq=self._seq)
        self.ctx.broadcast(ELECT, leader=self.best)

    def result(self) -> Dict[str, object]:
        return {
            "leader": self.best,
            "parent": self.parent,
            "children": frozenset(self.children),
        }


@dataclass(frozen=True)
class ElectionResult:
    """Outcome of a leader-election run."""

    leader: Hashable
    parent: Dict[Hashable, Optional[Hashable]]
    children: Dict[Hashable, FrozenSet[Hashable]]
    stats: SimStats
    crashed: FrozenSet[Hashable] = frozenset()

    def levels(self) -> Dict[Hashable, int]:
        """Tree depth of every node (root at level 0).

        Computed by walking parent pointers with memoization; in a real
        deployment the nodes learn this in the level calculation phase,
        which :mod:`repro.wcds.algorithm1` simulates explicitly.
        """
        depths: Dict[Hashable, int] = {self.leader: 0}

        def depth(node: Hashable) -> int:
            trail = []
            current = node
            while current not in depths:
                trail.append(current)
                current = self.parent[current]
            base = depths[current]
            for offset, item in enumerate(reversed(trail), start=1):
                depths[item] = base + offset
            return depths[node]

        for node in self.parent:
            depth(node)
        return depths


def elect_leader(
    graph: Graph,
    *,
    sim: Optional[SimConfig] = None,
    registry=None,
) -> ElectionResult:
    """Run the election protocol to quiescence on a connected graph.

    Returns the elected leader (the minimum node id), the spanning-tree
    parent/children pointers, and the run's message statistics.  A
    ``registry`` (:class:`repro.obs.MetricsRegistry`) additionally
    receives per-kind ``sim_messages_total`` counters.

    Under a faulty :class:`SimConfig` (loss or a fault plan) the
    convergence checks are restricted to the surviving nodes, and the
    tree is validated by reachability from the root over survivor
    child pointers; a broken tree raises ``RuntimeError`` (the chaos
    harness catches it and restarts the epoch on the survivors).
    """
    config = sim or SimConfig()
    if graph.num_nodes == 0:
        raise ValueError("cannot elect a leader of an empty graph")
    if not is_connected(graph):
        raise ValueError("leader election requires a connected graph")
    simulator = make_simulator(graph, ElectionNode, config, registry=registry)
    stats = simulator.run()
    results = simulator.collect_results()
    crashed = simulator.crashed
    survivors = [n for n in graph.nodes() if n not in crashed]
    if not survivors:
        raise RuntimeError("every node crashed during the election")
    leaders = {results[n]["leader"] for n in survivors}
    if len(leaders) != 1:
        raise RuntimeError(f"election did not converge: leaders={leaders!r}")
    (leader,) = leaders
    parent = {node: results[node]["parent"] for node in survivors}
    children = {node: results[node]["children"] for node in survivors}
    if config.faulty:
        _validate_surviving_tree(leader, parent, children)
    else:
        _validate_tree(graph, leader, parent, children)
    return ElectionResult(
        leader=leader, parent=parent, children=children, stats=stats,
        crashed=crashed,
    )


def _validate_surviving_tree(
    leader: Hashable,
    parent: Dict[Hashable, Optional[Hashable]],
    children: Dict[Hashable, FrozenSet[Hashable]],
) -> None:
    """Check every survivor hangs off the root via survivor tree edges.

    Orphans (parent crashed and never re-attached) and parent cycles
    both show up as unreachable nodes.
    """
    survivors = set(parent)
    if leader not in survivors:
        raise RuntimeError("elected leader crashed")
    reached = {leader}
    frontier = [leader]
    while frontier:
        node = frontier.pop()
        for child in canonical_order(children.get(node, frozenset())):
            if child in survivors and child not in reached and parent[child] == node:
                reached.add(child)
                frontier.append(child)
    missing = survivors - reached
    if missing:
        raise RuntimeError(
            f"election tree broken by faults: unreachable={sorted(map(repr, missing))!r}"
        )


def _validate_tree(
    graph: Graph,
    leader: Hashable,
    parent: Dict[Hashable, Optional[Hashable]],
    children: Dict[Hashable, FrozenSet[Hashable]],
) -> None:
    """Sanity-check the parent/children pointers form a spanning tree."""
    if parent[leader] is not None:
        raise RuntimeError("leader ended up with a parent")
    for node, par in parent.items():
        if node == leader:
            continue
        if par is None:
            raise RuntimeError(f"non-leader {node!r} has no parent")
        if not graph.has_edge(node, par):
            raise RuntimeError(f"tree edge ({node!r}, {par!r}) not in graph")
        if node not in children[par]:
            raise RuntimeError(f"child pointer missing: {par!r} -> {node!r}")
