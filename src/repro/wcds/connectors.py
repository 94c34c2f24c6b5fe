"""Algorithm II's connector rule as one integer kernel.

For every pair of MIS-dominators ``(u, w)`` exactly three hops apart,
the lower-id endpoint ``u`` picks one intermediate: the minimum-id
neighbour ``v`` of ``u`` that lies on a 3-hop path to ``w`` (§4.2).  In
the paper ``u`` learns ``w`` from its neighbours' 1-HOP- and
2-HOP-DOMINATORS lists; :func:`three_hop_relays` is that list step run
centrally:

* an MIS node is within two hops of ``u`` exactly when it is an MIS
  neighbour of some node of ``N[u]``;
* ``w`` at distance 3 is then reached as ``u - v - x - w``, and
  ``dist(v, w) = 2`` holds exactly when ``N(v) ∩ N(w) ≠ ∅``.

So scanning ``v`` in ascending order, then ``x ∈ N(v)``, then the MIS
neighbours ``w`` of ``x``, the first ``v`` that reaches a new ``w`` is
the minimum candidate.  Three callers run the scan:

* the whole-graph construction
  (:func:`repro.wcds.algorithm2.algorithm2_centralized`) reads the
  graph's shared :meth:`~repro.graphs.graph.Graph.numbering`;
* the tiled one (:class:`repro.shard.stitch.ShardedBackbone`), which
  also maintains the backbone under mobility and churn, numbers each
  tile with :func:`number_nodes`;
* the clusterhead router (:class:`repro.routing.ClusterheadRouter`)
  lists every MIS node's 3-hop MIS nodes in both directions, with ``v``
  restricted to dominators so both expanded edges are black.

The scan reads each node's MIS neighbours.  A whole-graph run scatters
them from the MIS nodes in one pass (:func:`mis_rows`); a run whose
few leaders read only a few rows (a tile re-selecting near a change)
passes :class:`MisRows`, which gathers each row on first read instead.
A numpy pair kernel (ragged expansion, first entry per cell) was
measured against this scan and lost on a move's few-leader balls, so
the scan stays one Python loop.

A pick reads its leader's 3-hop ball, but the MIS is a global fixpoint:
§4.2's 3-hop locality describes a local repair rule.  Exact Algorithm
II met it on M1–M3's random-id UDGs (2 hops under mobility, 3 under
churn); on row-major ``jittered_grid(10000)`` 86–95 of 480 moves of up
to 0.3 R flipped nodes more than 3 hops away (max 90–93, seeds 0–2).
"""

from __future__ import annotations

from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.graphs.graph import Graph

Node = Hashable


def number_nodes(
    graph: Graph, members: Iterable[Node]
) -> Tuple[List[Node], Dict[Node, int], List[Tuple[int, ...]]]:
    """Number ``members`` in ascending id order.

    Returns the members by number, the inverse map, and each member's
    neighbours among the members as an ascending tuple of numbers.
    Algorithm II ranks by bare id, so the numbering must agree with
    ``<``: it uses plain :func:`sorted`, and ids that do not compare
    (say ints mixed with strings) raise :class:`TypeError`.
    """
    nodes: List[Node] = sorted(members)  # type: ignore[type-var]
    index = {node: i for i, node in enumerate(nodes)}
    adj: List[Tuple[int, ...]] = []
    for node in nodes:
        nbrs = [i for i in map(index.get, graph.adjacency(node)) if i is not None]
        nbrs.sort()
        adj.append(tuple(nbrs))
    return nodes, index, adj


class MisRows(Dict[int, List[int]]):
    """Each node's MIS neighbours, ascending, gathered from ``adj`` on
    first read: what :func:`mis_rows` scatters for a whole
    graph, for a run that reads only the rows near its leaders."""

    def __init__(
        self, adj: Sequence[Tuple[int, ...]], is_mis: Sequence[Optional[int]]
    ) -> None:
        super().__init__()
        self.adj = adj
        self.is_mis = is_mis

    def __missing__(self, x: int) -> List[int]:
        is_mis = self.is_mis
        row = self[x] = [w for w in self.adj[x] if is_mis[w]]
        return row


#: Each node's MIS neighbours, ascending: every row (:func:`mis_rows`)
#: or the rows read so far (:class:`MisRows`).
Rows = Union[Sequence[List[int]], Mapping[int, List[int]]]


def mis_rows(
    adj: Sequence[Tuple[int, ...]], is_mis: Sequence[Optional[int]]
) -> List[List[int]]:
    """Each node's MIS neighbours, ascending, scattered from the MIS
    nodes in one pass (what :class:`MisRows` gathers row by row)."""
    rows: List[List[int]] = [[] for _ in adj]
    for w, flag in enumerate(is_mis):
        if flag:
            for x in adj[w]:
                rows[x].append(w)
    return rows


def three_hop_relays(
    adj: Sequence[Tuple[int, ...]],
    rows: Rows,
    leaders: Iterable[int],
    through: Optional[Sequence[int]] = None,
    upper: bool = True,
) -> List[Tuple[int, int, int, int]]:
    """``(u, w, v, x)`` for each leader ``u`` and every MIS node ``w`` at
    hop distance exactly 3 from it (only ``w > u`` if ``upper``): ``v``
    is the minimum neighbour of ``u`` on a path ``u - v - x - w`` (among
    the ``v`` with ``through[v]`` truthy, if given) and ``x`` the
    minimum common neighbour of ``v`` and ``w``.  Leaders come in the
    order given, each one's targets in ascending ``w``.  With ``upper``
    and no ``through``, the ``(u, w, v)`` are Algorithm II's connector
    picks for the pairs led by ``leaders`` (callers pass them
    ascending).

    ``adj[i]`` is node ``i``'s ascending neighbour tuple and ``rows``
    holds the MIS rows (:func:`mis_rows` or :class:`MisRows`).
    ``x`` is the first node of ``v``'s row that no earlier ``v`` read:
    an earlier one sharing a neighbour with ``w`` would have reached
    ``w`` first.
    """
    relays: List[Tuple[int, int, int, int]] = []
    for u in leaders:
        first = adj[u]
        # MIS nodes within two hops of u (and the found targets) are
        # never new targets.
        blocked = set(rows[u])
        for v in first:
            blocked.update(rows[v])
        # Nodes of N[u] only reach MIS nodes within two hops; a node x
        # at distance 2 yields its targets to the first v reaching it.
        seen = set(first)
        seen.add(u)
        low = u if upper else -1
        found: List[Tuple[int, int, int]] = []
        for v in first if through is None else [v for v in first if through[v]]:
            for x in adj[v]:
                if x in seen:
                    continue
                seen.add(x)
                for w in rows[x]:
                    if w > low and w not in blocked:
                        blocked.add(w)
                        found.append((w, v, x))
        found.sort()
        relays.extend((u, w, v, x) for w, v, x in found)
    return relays

