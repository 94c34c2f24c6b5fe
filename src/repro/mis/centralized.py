"""Centralized MIS constructions (Table 1 of the paper).

The construction is the paper's simple loop: while unmarked (white)
nodes remain, take the white node of lowest rank, mark it black, and
mark its neighbors gray.  With a *static* ranking this is equivalent to
one pass over the nodes in rank order, taking each node that is still
white — which is how :func:`greedy_mis` implements it.

These centralized versions are the reference twins of the distributed
protocols: on the same ranking they must produce the identical set,
which the property tests verify.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Mapping, Set

from repro.graphs.graph import Graph, canonical_order
from repro.mis.ranking import validate_ranking


def greedy_mis(graph: Graph, ranking: Mapping[Hashable, int] = None) -> Set[Hashable]:
    """MIS by lowest-static-rank-first marking.

    ``ranking`` maps each node to its int position.  With none given,
    the ids are sorted directly (Algorithm II's MIS, the order of
    :func:`~repro.mis.ranking.id_ranking`); mixed ids raise ``TypeError``.
    """
    if ranking is None:
        order = sorted(graph.nodes())
    else:
        validate_ranking(graph, ranking)
        order = sorted(graph.nodes(), key=ranking.__getitem__)
    black: Set[Hashable] = set()
    gray: Set[Hashable] = set()
    for node in order:
        if node in gray:
            continue
        black.add(node)
        gray.update(graph.adjacency(node))
    return black


def greedy_mis_dynamic_degree(graph: Graph) -> Set[Hashable]:
    """MIS by dynamic ``(white degree, id)`` ranking.

    The paper's dynamic ranking example: a node's rank is its number of
    *still-white* neighbors, with id breaking ties; the white node with
    the most white neighbors is marked next.  Implemented with a lazy
    heap — stale entries are re-pushed with their refreshed degree.
    """
    white_degree: Dict[Hashable, int] = {
        node: graph.degree(node) for node in graph.nodes()
    }
    state: Dict[Hashable, str] = {node: "white" for node in graph.nodes()}
    heap = [(-deg, node) for node, deg in white_degree.items()]
    heapq.heapify(heap)
    black: Set[Hashable] = set()
    while heap:
        neg_deg, node = heapq.heappop(heap)
        if state[node] != "white":
            continue
        if -neg_deg != white_degree[node]:
            heapq.heappush(heap, (-white_degree[node], node))
            continue
        black.add(node)
        state[node] = "black"
        for nbr in canonical_order(graph.adjacency(node)):
            if state[nbr] == "white":
                state[nbr] = "gray"
                for second in canonical_order(graph.adjacency(nbr)):
                    if state[second] == "white":
                        white_degree[second] -= 1
                        heapq.heappush(heap, (-white_degree[second], second))
    return black


def mis_coloring(graph: Graph, mis: Set[Hashable]) -> Dict[Hashable, str]:
    """The black/gray coloring induced by an MIS."""
    return {
        node: "black" if node in mis else "gray" for node in graph.nodes()
    }
