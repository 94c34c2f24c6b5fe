"""Shortest paths on the clusterhead overlay (Section 4.2).

The overlay joins MIS-dominators whose clusters are 2 or 3 hops apart,
each link weighted by the hop count of its realization.  Both the
centralized :class:`~repro.routing.clusterhead.ClusterheadRouter` and
the link-state tables of :mod:`repro.routing.table_protocol` need the
first overlay hop and the distance from a dominator to every other, and
both get them from :class:`OverlayPaths`, so their tie-breaks agree by
construction.

:class:`OverlayPaths` numbers the overlay nodes and splits each node's
links by weight into CSR arrays, keeping the node's canonical link
order.  One level-synchronous pass then settles every (source, node)
pair of any set of sources at once, vectorised with numpy.  A *cell* is
one such pair, flattened to ``row * n + node``; level 0 holds the
sources.  Level ``d`` is built from a stream of candidate entries: for
each weight ``w``, largest first, the cells of level ``d - w`` in their
settle order, each expanded through its weight-``w`` links in link
order.  Entries whose target is already settled are dropped, and of the
rest only the first entry of each target cell is kept; the kept entries,
in stream order, are level ``d`` in settle order.  A kept node's first
hop is the node itself when its parent is the source (``w == d``), else
the parent's first hop.  The pass stops after as many consecutive empty
levels as the largest weight, since no later level can then be reached.

Why this is exactly the first hop a binary-heap Dijkstra picks when it
pushes each node's links in canonical order (``(distance, push
counter)`` order): a node settles through the first push at its final
distance, and that push comes from its earliest-settled predecessor
that is tight at that distance.  Every lower level settles before level
``d``, so a parent on level ``d - 3`` pushed before any parent on level
``d - 2``; within a level, pushes come in (parent's settle rank, link
index) order.  The stream above lists level ``d``'s candidates in
exactly that order, so keeping each target's first entry keeps the
heap's winner, equal-cost ties included.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

import numpy as np

from repro.graphs.graph import canonical_order

#: Undirected overlay as ``node -> {neighbour: weight}``.
OverlayAdjacency = Mapping[Hashable, Mapping[Hashable, int]]

#: A level of the pass: its distance, settled cells and their first hops.
Level = Tuple[int, Any, Any]


class OverlayPaths:
    """Shortest paths over one fixed overlay, from one source or all.

    ``adjacency`` lists each node's links; a neighbour that has no entry
    of its own is a node without links.  Weights must be positive
    integers (hop counts), else :class:`ValueError`.
    """

    def __init__(self, adjacency: OverlayAdjacency) -> None:
        nodes = set(adjacency)
        for links in adjacency.values():
            nodes.update(links)
        #: Overlay nodes in canonical order: index ``i`` is node ``i``
        #: of :meth:`all_pairs`.
        self.nodes: List[Hashable] = canonical_order(nodes)
        self.index: Dict[Hashable, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        # Per weight: each node's links of that weight, in the node's
        # own canonical link order.  With mixed id types that order can
        # differ from the global numbering's, so it is not index order.
        rows: Dict[int, List[List[int]]] = {}
        for i, node in enumerate(self.nodes):
            links = adjacency.get(node, {})
            for nbr in canonical_order(links):
                weight = links[nbr]
                if type(weight) is not int or weight <= 0:
                    raise ValueError(
                        f"overlay link ({node!r}, {nbr!r}) has weight "
                        f"{weight!r}; weights must be positive integers"
                    )
                if weight not in rows:
                    rows[weight] = [[] for _ in self.nodes]
                rows[weight][i].append(self.index[nbr])
        #: ``(weight, starts, degrees, targets)`` per weight, largest
        #: first: node ``i``'s links of that weight are
        #: ``targets[starts[i]:starts[i] + degrees[i]]``.
        self._csr: List[Tuple[int, Any, Any, Any]] = []
        for weight in sorted(rows, reverse=True):
            degrees = np.array([len(row) for row in rows[weight]], np.int64)
            targets = np.fromiter(
                (nbr for row in rows[weight] for nbr in row),
                np.int32, count=int(degrees.sum()),
            )
            starts = np.cumsum(degrees) - degrees
            self._csr.append((weight, starts, degrees, targets))
        self._span = max(rows, default=1)

    def _sweep(self, sources: List[int]) -> Tuple[Any, List[Level]]:
        """Settle every cell of ``sources`` (node indices; row ``r`` is
        ``sources[r]``).

        Returns the flat first-hop array — ``-1`` where unreached, the
        source itself on its own cell — and the levels ``(d, cells,
        first hops)`` in settle order, level 0 excluded.
        """
        n = len(self.nodes)
        size = len(sources) * n
        cell = np.int32 if size < 2**31 else np.int64
        origin = np.asarray(sources, dtype=cell)
        offsets = np.arange(len(sources), dtype=cell) * n
        first = np.full(size, -1, dtype=cell)
        first[offsets + origin] = origin
        marker = np.empty(size, dtype=np.int64)
        # The levels the next one can still grow from, by distance, as
        # (row offsets, nodes, first hops): a cell is offset + node.
        recent: Dict[int, Tuple[Any, Any, Any]] = {0: (offsets, origin, origin)}
        levels: List[Level] = []
        dist = 0
        empty = 0 if sources else self._span
        while empty < self._span:
            dist += 1
            recent.pop(dist - self._span - 1, None)
            targets, hops = [], []
            for weight, starts, degrees, links in self._csr:
                parents = recent.get(dist - weight)
                if parents is None:
                    continue
                offsets, nodes, firsts = parents
                counts = degrees[nodes]
                ends = np.cumsum(counts)
                total = int(ends[-1])
                if not total:
                    continue
                # Every link of every parent: parents in settle order,
                # each parent's links in link order.
                pos = np.repeat(starts[nodes] + counts - ends, counts)
                pos += np.arange(total)
                nbr = links[pos]
                targets.append(np.repeat(offsets, counts) + nbr)
                hops.append(nbr if weight == dist else np.repeat(firsts, counts))
            if not targets:
                empty += 1
                continue
            target = np.concatenate(targets)
            hop = np.concatenate(hops)
            fresh = np.flatnonzero(first[target] < 0)
            if not len(fresh):
                empty += 1
                continue
            empty = 0
            target, hop = target[fresh], hop[fresh]
            # The first entry per target cell: scatter the entry indices
            # in reverse, so the earliest one is left standing.
            order = np.arange(len(target))
            marker[target[::-1]] = order[::-1]
            keep = np.flatnonzero(marker[target] == order)
            target, hop = target[keep], hop[keep]
            first[target] = hop
            node = target % n
            recent[dist] = (target - node, node, hop)
            levels.append((dist, target, hop))
        return first, levels

    def all_pairs(self) -> Tuple[Any, Any]:
        """``(first_hop, distance)``, two ``n x n`` int matrices over
        the node numbering of :attr:`nodes`, every row from one pass:
        ``first_hop[s, u]`` is the index of the first overlay hop from
        node ``s`` to node ``u`` and ``distance[s, u]`` its length
        (``s`` and 0 on the diagonal, ``-1`` where unreached)."""
        n = len(self.nodes)
        first, levels = self._sweep(list(range(n)))
        distance = np.full_like(first, -1)
        distance[np.arange(n) * (n + 1)] = 0
        for dist, cells, _ in levels:
            distance[cells] = dist
        return first.reshape(n, n), distance.reshape(n, n)

    def _levels(self, source: Hashable) -> List[Level]:
        start = self.index.get(source)
        if start is None:
            return []
        return self._sweep([start])[1]

    def first_hops(self, source: Hashable) -> Dict[Hashable, Hashable]:
        """The first overlay hop from ``source`` to every node it
        reaches, in settle order."""
        return {node: hop for node, (hop, _) in self.table(source).items()}

    def table(self, source: Hashable) -> Dict[Hashable, Tuple[Hashable, int]]:
        """``node -> (first hop, distance)`` for every node ``source``
        reaches, in settle order."""
        nodes = self.nodes
        return {
            nodes[node]: (nodes[hop], dist)
            for dist, cells, hops in self._levels(source)
            for node, hop in zip(cells.tolist(), hops.tolist())
        }
