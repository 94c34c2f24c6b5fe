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

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Tuple

from repro.graphs.graph import Graph, canonical_order, numbered_by_id
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
    first receipt) — the broadcast-storm baseline, and the schedule of a
    backbone that holds every node.
    """
    _, covered = SpannerIndex(graph, graph.nodes()).schedule(source)
    return BroadcastOutcome(
        transmissions=covered, covered=covered, total=graph.num_nodes
    )


class SpannerIndex:
    """Backbone-broadcast schedules over one fixed weakly induced spanner.

    The spanner keeps every node of ``graph`` and the black edges, those
    with at least one endpoint in ``backbone``.  The nodes are the
    graph's shared :meth:`~repro.graphs.graph.Graph.numbering` and each
    node's spanner neighbours are a tuple of numbers, so a schedule is
    one plain FIFO BFS over integers.
    """

    def __init__(self, graph: Graph, backbone: Iterable[Hashable]) -> None:
        members = set(backbone)
        numbering = graph.numbering()
        nodes, self._index, adj = numbering
        self._nodes = nodes
        # Plain lists, not bytearrays: CPython specializes list
        # subscripts, so the schedule's flag reads and writes are
        # cheaper.  ``_forwards`` is each number's always-forward flag,
        # the template a schedule copies and sets its source in.
        self._forwards = [node in members for node in nodes]
        black = self._forwards
        self._links: List[Tuple[int, ...]] = [
            row if black[i] else tuple([j for j in row if black[j]])
            for i, row in enumerate(adj)
        ]
        if not numbering.natural:
            # With mixed id types the global order is the repr fallback,
            # which need not agree with a neighbour set's own canonical
            # order (10 sorts before 9), so re-sort each row by its ids.
            rank = self._index.__getitem__
            self._links = [
                tuple(map(rank, canonical_order(nodes[j] for j in row)))
                for row in self._links
            ]
        # When the ids are exactly the ints 0..n-1 a number is its id,
        # so a schedule's forwarder numbers are its forwarders.
        self._by_id = numbered_by_id(nodes)

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
        forwards = self._forwards.copy()
        forwards[start] = True
        heard = [False] * len(links)
        heard[start] = True
        # The loop appends to the list it walks: the list is the FIFO
        # queue and, once the loop ends, the BFS order.
        queue = [start]
        forwarders: List[Hashable] = []
        for node in queue:
            found = forwards[node]
            for nbr in links[node]:
                if not heard[nbr]:
                    heard[nbr] = True
                    queue.append(nbr)
                    found = True
            if found:
                forwarders.append(node)
        if self._by_id:
            return forwarders, len(queue)
        nodes = self._nodes
        return [nodes[node] for node in forwarders], len(queue)


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
