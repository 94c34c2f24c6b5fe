"""Backbone broadcasting: the virtual-backbone motivation of Section 1.

The point of a small WCDS is that network-wide broadcast does not need
every node to retransmit.  Because the backbone is only *weakly*
connected, dominators alone cannot relay — black paths alternate
dominator / gray, so the gray *gateway* between two dominators must
forward too.  The backbone scheme here retransmits at the source, at
every dominator, and at a gray node only when it still has an unserved
dominator neighbor (on-demand gateway forwarding); coverage is
guaranteed by the WCDS properties and checked explicitly.

The rule is written once, in :meth:`SpannerIndex.schedule`;
:func:`backbone_broadcast` and the backbone service's broadcast plans
both call it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, List, Set, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.wcds.base import WCDSResult


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one broadcast dissemination."""

    transmissions: int
    covered: int
    total: int

    @property
    def full_coverage(self) -> bool:
        """Every node received the packet."""
        return self.covered == self.total


def blind_flood(graph: Graph, source: Hashable) -> BroadcastOutcome:
    """Classic flooding: every node retransmits the packet once.

    Transmissions equal the number of reached nodes (each forwards on
    first receipt) — the broadcast-storm baseline.
    """
    reached: Set[Hashable] = {source}
    frontier = deque([source])
    transmissions = 0
    while frontier:
        node = frontier.popleft()
        transmissions += 1  # node forwards once
        for nbr in canonical_order(graph.adjacency(node)):
            if nbr not in reached:
                reached.add(nbr)
                frontier.append(nbr)
    return BroadcastOutcome(
        transmissions=transmissions, covered=len(reached), total=graph.num_nodes
    )


class SpannerIndex:
    """Backbone-broadcast schedules over one fixed weakly induced spanner.

    The spanner keeps every node of ``graph`` and the black edges, those
    with at least one endpoint in ``backbone``.  The nodes are numbered
    once in canonical order and each node's spanner neighbours stored as
    a tuple of numbers, so a schedule is one plain FIFO BFS over
    integers.
    """

    def __init__(self, graph: Graph, backbone: Iterable[Hashable]) -> None:
        members = set(backbone)
        self._nodes: List[Hashable] = canonical_order(graph.nodes())
        self._index = {node: i for i, node in enumerate(self._nodes)}
        rank = self._index.__getitem__
        self._backbone = bytearray(len(self._nodes))
        self._links: List[Tuple[int, ...]] = []
        for i, node in enumerate(self._nodes):
            nbrs: AbstractSet[Hashable] = graph.adjacency(node)
            if node in members:
                self._backbone[i] = 1
            else:
                nbrs = nbrs & members
            # With mixed id types canonical order falls back to repr,
            # which need not agree with the global numbering (10 sorts
            # before 9), so the neighbours keep their own canonical
            # order rather than index order.
            self._links.append(tuple(map(rank, canonical_order(nbrs))))

    def schedule(self, source: Hashable) -> Tuple[List[Hashable], int]:
        """The forwarders of a backbone broadcast from ``source``, in
        transmission order, and how many nodes hear it.

        Forwarding rule on first receipt: the source and all dominators
        always retransmit; a gray node retransmits only if some
        dominator neighbour has not yet heard the packet.  A gray node's
        spanner neighbours are all dominators, so that holds exactly
        when the node is the BFS parent of some node, and a gray node
        that stays silent had nobody left to reach.  An unknown
        ``source`` raises :class:`KeyError`.
        """
        start = self._index[source]
        links = self._links
        nodes = self._nodes
        forwards = bytearray(self._backbone)
        forwards[start] = 1
        heard = bytearray(len(links))
        heard[start] = 1
        # The loop appends to the list it walks: the list is the FIFO
        # queue and, once the loop ends, the BFS order.
        queue = [start]
        forwarders: List[Hashable] = []
        for node in queue:
            before = len(queue)
            for nbr in links[node]:
                if not heard[nbr]:
                    heard[nbr] = 1
                    queue.append(nbr)
            if forwards[node] or len(queue) > before:
                forwarders.append(nodes[node])
        return forwarders, len(queue)


def backbone_broadcast(
    graph: Graph, result: WCDSResult, source: Hashable
) -> BroadcastOutcome:
    """Backbone flooding over the black edges.

    The source and all dominators retransmit, and a gray node only when
    it is the gateway that carries the flood across a white gap between
    clusters (:meth:`SpannerIndex.schedule`).  Total transmissions come
    out near ``1 + |U| + #gateways`` — far below the ``n`` of blind
    flooding when the WCDS is small.
    """
    forwarders, covered = SpannerIndex(graph, result.dominators).schedule(source)
    return BroadcastOutcome(
        transmissions=len(forwarders), covered=covered, total=graph.num_nodes
    )
