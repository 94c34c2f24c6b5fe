"""Integer-bitset graph snapshot for the optimality search engine.

The branch & bound enumerates subsets of nodes millions of times;
Python's arbitrary-precision integers make an n-node subset a single
word-packed value with O(n/64) union/intersection and hardware popcount
— an order of magnitude faster than ``set`` operations and hashable for
the transposition table.  Node index ``i`` is number ``i`` of the
graph's :meth:`~repro.graphs.graph.Graph.numbering` (canonical order), so
ascending bit order *is* canonical order and every loop below is
deterministic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Set, Tuple

from repro.graphs.graph import Graph

Node = Hashable


def iter_bits(mask: int) -> "List[int]":
    """The set bit positions of ``mask``, ascending (= canonical order)."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    """Number of set bits."""
    return bin(mask).count("1")


@dataclass(frozen=True)
class BitsetGraph:
    """A graph frozen into bitmask adjacency, indexed canonically."""

    nodes: Tuple[Node, ...]
    #: ``closed[i]`` — the closed neighborhood N[i] as a bitmask.
    closed: Tuple[int, ...]
    #: ``closed2[i]`` — nodes within two hops of ``i`` (including it).
    closed2: Tuple[int, ...]
    #: All ``n`` low bits set.
    full: int
    #: ``distances[i][j]`` — hop distance, -1 when unreachable.
    distances: Tuple[Tuple[int, ...], ...] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_graph(cls, graph: Graph) -> "BitsetGraph":
        nodes, _, adj = graph.numbering()
        # Distinct bits (no self-loops), so their sum is their union.
        closed = [sum(1 << j for j in row) | 1 << i for i, row in enumerate(adj)]
        closed2: List[int] = []
        for i in range(len(nodes)):
            mask = closed[i]
            for j in iter_bits(closed[i]):
                mask |= closed[j]
            closed2.append(mask)
        distances = tuple(
            tuple(row) for row in _hop_distances(closed, len(nodes))
        )
        return cls(
            nodes=nodes,
            closed=tuple(closed),
            closed2=tuple(closed2),
            full=(1 << len(nodes)) - 1,
            distances=distances,
        )

    def members(self, mask: int) -> Set[Node]:
        """The node set a bitmask denotes."""
        return {self.nodes[i] for i in iter_bits(mask)}


def _hop_distances(closed: List[int], n: int) -> List[List[int]]:
    """All-pairs hop distances by frontier BFS over bitmasks."""
    table: List[List[int]] = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        reached = 1 << source
        frontier = 1 << source
        level = 0
        while frontier:
            level += 1
            expanded = 0
            for i in iter_bits(frontier):
                expanded |= closed[i]
            fresh = expanded & ~reached
            for j in iter_bits(fresh):
                dist[j] = level
            reached |= fresh
            frontier = fresh
        table.append(dist)
    return table
