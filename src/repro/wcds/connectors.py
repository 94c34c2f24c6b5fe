"""Algorithm II's connector rule as one integer kernel.

For every pair of MIS-dominators ``(u, w)`` exactly three hops apart,
the lower-id endpoint ``u`` picks one intermediate: the minimum-id
neighbour ``v`` of ``u`` that lies on a 3-hop path to ``w`` (§4.2).  In
the paper ``u`` learns ``w`` from its neighbours' 1-HOP- and
2-HOP-DOMINATORS lists; :func:`select_connectors` is that list step run
centrally:

* an MIS node is within two hops of ``u`` exactly when it is an MIS
  neighbour of some node of ``N[u]``;
* ``w`` at distance 3 is then reached as ``u - v - x - w``, and
  ``dist(v, w) = 2`` holds exactly when ``N(v) ∩ N(w) ≠ ∅``.

So scanning ``v`` in ascending order, then ``x ∈ N(v)``, then the MIS
neighbours ``w`` of ``x``, the first ``v`` that reaches a new ``w`` is
the minimum candidate.  The whole-graph construction
(:func:`repro.wcds.algorithm2.algorithm2_centralized`) reads the graph's
shared :meth:`~repro.graphs.graph.Graph.numbering`; the tiled one
(:class:`repro.shard.stitch.ShardedBackbone`) and the mobility
maintainer (:class:`repro.mobility.MaintainedWCDS`) number a local
region with :func:`number_nodes`.  All three call the kernel.

The kernel reads each node's MIS neighbours.  A whole-graph run
scatters them from the MIS nodes in one pass; a run whose few leaders
read only a few rows (a tile re-selecting near a change) passes
:class:`MisRows`, which gathers each row on first read instead.
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
    first read: what :func:`select_connectors` scatters for a whole
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


def select_connectors(
    adj: Sequence[Tuple[int, ...]],
    is_mis: Sequence[Optional[int]],
    leaders: Iterable[int],
    mis_adj: Optional[Mapping[int, List[int]]] = None,
) -> List[Tuple[int, int, int]]:
    """Algorithm II's connector picks ``(u, w, v)`` for the 3-hop MIS
    pairs led by ``leaders``.

    ``adj[i]`` is node ``i``'s ascending neighbour tuple, ``is_mis[i]``
    is truthy for MIS nodes.  For each leader ``u`` (in the order
    given; callers pass them ascending), every MIS node ``w > u`` at hop
    distance exactly 3 gets the minimum neighbour ``v`` of ``u`` on a
    3-hop path to it, and the leader's pairs come in ascending ``w``.
    ``mis_adj`` is a :class:`MisRows` for the same ``adj`` and
    ``is_mis``; without it the rows are scattered for every node.
    """
    rows: Union[Mapping[int, List[int]], List[List[int]]]
    if mis_adj is None:
        rows = [[] for _ in adj]
        for w, flag in enumerate(is_mis):
            if flag:
                for x in adj[w]:
                    rows[x].append(w)
    else:
        rows = mis_adj
    pairs: List[Tuple[int, int, int]] = []
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
        found: List[Tuple[int, int]] = []
        for v in first:
            for x in adj[v]:
                if x in seen:
                    continue
                seen.add(x)
                for w in rows[x]:
                    if w > u and w not in blocked:
                        blocked.add(w)
                        found.append((w, v))
        found.sort()
        pairs.extend((u, w, v) for w, v in found)
    return pairs
