"""Shortest paths on the clusterhead overlay (Section 4.2).

The overlay joins MIS-dominators whose clusters are 2 or 3 hops apart,
each link weighted by the hop count of its realization.  Both the
centralized :class:`~repro.routing.clusterhead.ClusterheadRouter` and
the link-state tables of :mod:`repro.routing.table_protocol` need the
first overlay hop and the distance from a dominator to every other, and
both get them from :class:`OverlayPaths`, so their tie-breaks agree by
construction.

:class:`OverlayPaths` numbers the overlay nodes and sorts each node's
links canonically once; every single-source pass then runs Dial's
algorithm, one FIFO bucket per integer distance.  Entries leave the
buckets in increasing distance and, within a distance, in push order —
the ``(distance, push counter)`` order of a binary-heap Dijkstra that
pushes each node's links in canonical order — so every first hop,
equal-cost ties included, is the one that heap Dijkstra picks.  A push
is skipped when the neighbour already holds a pushed distance no larger
than the new one: that entry could never leave the buckets first.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, List, Mapping, Tuple

from repro.graphs.graph import canonical_order

#: Above every reachable distance: a node's best pushed distance before
#: its first push.
_UNSEEN = sys.maxsize

#: Undirected overlay as ``node -> {neighbour: weight}``.
OverlayAdjacency = Mapping[Hashable, Mapping[Hashable, int]]


class OverlayPaths:
    """Single-source shortest paths over one fixed overlay.

    ``adjacency`` lists each node's links; a neighbour that has no entry
    of its own is a node without links.  Weights must be positive
    integers (hop counts), else :class:`ValueError`.
    """

    def __init__(self, adjacency: OverlayAdjacency) -> None:
        nodes = set(adjacency)
        for links in adjacency.values():
            nodes.update(links)
        self._nodes: List[Hashable] = canonical_order(nodes)
        index = {node: i for i, node in enumerate(self._nodes)}
        self._index = index
        self._links: List[Tuple[Tuple[int, int], ...]] = []
        self._span = 1
        for node in self._nodes:
            links = adjacency.get(node, {})
            row = []
            # Ties go to the earlier of this node's own links in
            # canonical order; with mixed id types that order can differ
            # from the global numbering's, so it is not the index order.
            for nbr in canonical_order(links):
                weight = links[nbr]
                if type(weight) is not int or weight <= 0:
                    raise ValueError(
                        f"overlay link ({node!r}, {nbr!r}) has weight "
                        f"{weight!r}; weights must be positive integers"
                    )
                self._span = max(self._span, weight + 1)
                row.append((index[nbr], weight))
            self._links.append(tuple(row))

    def _settle(self, source: Hashable) -> Tuple[List[int], List[int], List[int]]:
        """Nodes reachable from ``source`` (itself excluded) in settling
        order, with per-node first-hop and distance arrays."""
        start = self._index.get(source)
        if start is None:
            return [], [], []
        links = self._links
        span = self._span
        # Weights are below ``span``, so pushes from distance d land in
        # d+1 .. d+span-1 and a ring of ``span`` buckets never wraps
        # onto the bucket being drained.
        buckets: List[List[int]] = [[] for _ in range(span)]
        best = [_UNSEEN] * len(links)
        # A bucket entry is only the node: the first hop is stored with
        # the node's best push, the only entry of it that can settle.
        hop = [start] * len(links)
        best[start] = 0
        last = 0
        for nbr, weight in links[start]:
            if weight < best[nbr]:
                best[nbr] = weight
                hop[nbr] = nbr
                buckets[weight % span].append(nbr)
                if weight > last:
                    last = weight
        order: List[int] = []
        dist = 1
        while dist <= last:
            slot = dist % span
            bucket = buckets[slot]
            buckets[slot] = []
            for node in bucket:
                if best[node] < dist:
                    continue  # superseded by a shorter push
                order.append(node)
                via = hop[node]
                for nbr, weight in links[node]:
                    reach = dist + weight
                    if reach < best[nbr]:
                        best[nbr] = reach
                        hop[nbr] = via
                        buckets[reach % span].append(nbr)
                        if reach > last:
                            last = reach
            dist += 1
        return order, hop, best

    def first_hops(self, source: Hashable) -> Dict[Hashable, Hashable]:
        """The first overlay hop from ``source`` to every node it
        reaches."""
        nodes = self._nodes
        order, hop, _ = self._settle(source)
        return {nodes[node]: nodes[hop[node]] for node in order}

    def table(self, source: Hashable) -> Dict[Hashable, Tuple[Hashable, int]]:
        """``node -> (first hop, distance)`` for every node ``source``
        reaches."""
        nodes = self._nodes
        order, hop, best = self._settle(source)
        return {nodes[node]: (nodes[hop[node]], best[node]) for node in order}
