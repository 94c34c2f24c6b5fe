"""Scalable MWDS heuristics: greedy domination, packing, 2-hop Steiner.

Beyond the exact oracle's reach (n ≈ 60–100), approximation ratios are
sandwiched between cheap certified bounds:

* :func:`greedy_mwds` — the classic minimum-weight dominating set
  greedy (pick the candidate minimizing weight per newly-dominated
  node), an **upper** bound on |MDS|; vectorized over the CSR arrays of
  :func:`repro.kernels.bfs.graph_to_csr` with a bit-identical pure
  fallback, same pattern as ``repro.kernels``;
* :func:`two_hop_packing` — a maximal 2-hop-separated node set (the
  *2-hop Steiner terminals* of the distributed MWCDS literature);
  members have pairwise-disjoint closed neighborhoods, so its size is
  an admissible **lower** bound on |MDS| <= |MWCDS| <= |MCDS|;
* :func:`connect_weakly` — 2-hop Steiner connection: merge the weak
  components of a dominating set by buying every other node of a
  shortest inter-component path (``floor((d-1)/2)`` connectors per
  merge), yielding a valid WCDS — with :func:`greedy_mwds_wcds` as the
  composed **upper** bound on |MWCDS| feasible to n ≈ 2000 and beyond.

Node weights default to 1 (the paper's unweighted objective); passing a
weight mapping turns both greedy rules into their MWDS forms, the
stepping stone to the weighted backbone family on the roadmap.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import is_connected
from repro.kernels import use_vector
from repro.kernels.bfs import graph_to_csr
from repro.mis.properties import is_dominating_set
from repro.wcds.base import weakly_induced_subgraph

Node = Hashable


def greedy_mwds(
    graph: Graph, weights: Optional[Mapping[Node, float]] = None
) -> Set[Node]:
    """Greedy minimum-weight dominating set.

    Repeatedly buys the candidate with the smallest weight per newly
    dominated node (ties broken canonically), until every node is
    dominated.  With unit weights this is the ln(Δ)-approximate greedy
    set cover over closed neighborhoods — an upper bound on |MDS|.

    Small graphs run :func:`pure_greedy_mwds`; from
    :data:`~repro.kernels.AUTO_THRESHOLD` nodes the numpy CSR twin
    :func:`vector_greedy_mwds` does; the chosen set is identical.
    """
    if use_vector(graph.num_nodes):
        return vector_greedy_mwds(graph, weights)
    return pure_greedy_mwds(graph, weights)


def pure_greedy_mwds(
    graph: Graph, weights: Optional[Mapping[Node, float]]
) -> Set[Node]:
    nodes = canonical_order(graph.nodes())
    weight = {node: _weight_of(weights, node) for node in nodes}
    white: Set[Node] = set(nodes)
    chosen: Set[Node] = set()
    while white:
        best_node: Optional[Node] = None
        best_score = 0.0
        for node in nodes:
            if node in chosen:
                continue
            covered = len(_closed(graph, node) & white)
            if covered == 0:
                continue
            score = weight[node] / covered
            if best_node is None or score < best_score:
                best_node = node
                best_score = score
        if best_node is None:  # pragma: no cover - white nodes dominate themselves
            raise AssertionError("no candidate covers a white node")
        chosen.add(best_node)
        white -= _closed(graph, best_node)
    return chosen


def vector_greedy_mwds(
    graph: Graph, weights: Optional[Mapping[Node, float]]
) -> Set[Node]:
    node_list, heads, tails = graph_to_csr(graph)
    n = len(node_list)
    weight = np.array(
        [_weight_of(weights, node) for node in node_list], dtype=np.float64
    )
    run_start = np.searchsorted(heads, np.arange(n, dtype=np.int64))
    run_end = np.append(run_start[1:], heads.size)
    white = np.ones(n, dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    chosen_nodes: Set[Node] = set()
    while True:
        remaining = float(white.sum())
        if remaining == 0.0:
            break
        # covered[v] = |N[v] ∩ white|, via one segmented sum over CSR.
        covered = white.copy()
        if heads.size:
            # The padding 0.0 keeps an isolated last node's run start
            # (heads.size) inside the array.
            neighbor_white = np.add.reduceat(np.append(white[tails], 0.0), run_start)
            neighbor_white[run_start == run_end] = 0.0
            covered += neighbor_white
        with np.errstate(divide="ignore"):
            score = np.where(covered > 0.0, weight / covered, np.inf)
        score[chosen] = np.inf
        pick = int(np.argmin(score))  # first minimum = canonical tie-break
        if not np.isfinite(score[pick]):  # pragma: no cover - see pure twin
            raise AssertionError("no candidate covers a white node")
        chosen[pick] = True
        chosen_nodes.add(node_list[pick])
        white[pick] = 0.0
        white[tails[run_start[pick] : run_end[pick]]] = 0.0
    return chosen_nodes


def two_hop_packing(
    graph: Graph, weights: Optional[Mapping[Node, float]] = None
) -> Set[Node]:
    """A maximal 2-hop-separated node set (2-hop Steiner terminals).

    Scans nodes by ascending weight (canonical on ties) and keeps any
    node at hop distance >= 3 from everything already kept.  Kept nodes
    have pairwise-disjoint closed neighborhoods, so every dominating
    set contains a distinct member per kept node:
    ``len(two_hop_packing(g))`` <= |MDS| <= |MWCDS| <= |MCDS|.
    """
    order = canonical_order(graph.nodes())
    if weights is not None:
        order.sort(key=lambda node: _weight_of(weights, node))
    blocked: Set[Node] = set()
    kept: Set[Node] = set()
    for node in order:
        if node in blocked:
            continue
        kept.add(node)
        closed = _closed(graph, node)
        blocked.update(closed)
        for neighbor in canonical_order(closed):
            blocked.update(graph.adjacency(neighbor))
    return kept


def packing_lower_bound(graph: Graph) -> int:
    """|two_hop_packing| — an admissible lower bound on |MDS|."""
    return len(two_hop_packing(graph))


def connect_weakly(graph: Graph, dominators: Iterable[Node]) -> Set[Node]:
    """Grow a dominating set into a WCDS by 2-hop Steiner connection.

    While the weak components (under the shared-neighbor relation) are
    plural, merge the two closest ones by buying every other interior
    node of a shortest connecting path — ``floor((d-1)/2)`` connectors
    for a hop distance of ``d``.  The result weakly connects because
    consecutive bought nodes (and the endpoints) sit within two hops of
    each other.
    """
    members = set(dominators)
    if not members:
        raise ValueError("cannot weakly connect an empty dominating set")
    while True:
        components = _weak_components(graph, members)
        if len(components) <= 1:
            return members
        path = _closest_component_path(graph, components)
        # Buy interiors at even positions: each is two hops from the
        # previous purchase and at most two from the far endpoint.
        members.update(path[2:-1:2])


def greedy_mwds_wcds(
    graph: Graph, weights: Optional[Mapping[Node, float]] = None
) -> Set[Node]:
    """Greedy MWDS + 2-hop Steiner connection: a scalable WCDS.

    The composed upper bound on |MWCDS| used by the ratio benchmarks
    where the exact oracle is out of reach.  Raises ``ValueError`` on
    empty or disconnected graphs (like every WCDS construction).
    """
    if graph.num_nodes == 0:
        raise ValueError("WCDS of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("greedy WCDS requires a connected graph")
    wcds = connect_weakly(graph, greedy_mwds(graph, weights))
    if not is_dominating_set(graph, wcds):  # pragma: no cover - invariant
        raise AssertionError("greedy MWDS lost domination while connecting")
    if not is_connected(weakly_induced_subgraph(graph, wcds)):
        raise AssertionError("2-hop Steiner connection left the WCDS split")
    return wcds


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _weight_of(weights: Optional[Mapping[Node, float]], node: Node) -> float:
    if weights is None:
        return 1.0
    value = float(weights[node])
    if value <= 0.0:
        raise ValueError(f"node weight must be positive, got {value} for {node!r}")
    return value


def _closed(graph: Graph, node: Node) -> Set[Node]:
    closed = set(graph.adjacency(node))
    closed.add(node)
    return closed


def _weak_components(graph: Graph, members: Set[Node]) -> List[Set[Node]]:
    """Components of ``members`` under 'within two hops' reachability."""
    components: List[Set[Node]] = []
    unvisited = set(members)
    while unvisited:
        seed = canonical_order(unvisited)[0]
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            two_hop: Set[Node] = set(graph.adjacency(current))
            for neighbor in canonical_order(graph.adjacency(current)):
                two_hop.update(graph.adjacency(neighbor))
            for other in canonical_order(two_hop & (unvisited - component)):
                component.add(other)
                frontier.append(other)
        components.append(component)
        unvisited -= component
    return components


def _closest_component_path(
    graph: Graph, components: List[Set[Node]]
) -> List[Node]:
    """Shortest path between the first component and any other."""
    source = components[0]
    owner: Dict[Node, int] = {}
    for index, component in enumerate(components):
        for node in component:
            owner[node] = index
    parents: Dict[Node, Optional[Node]] = {
        node: None for node in canonical_order(source)
    }
    frontier: List[Node] = canonical_order(source)
    while frontier:
        next_frontier: List[Node] = []
        for current in frontier:
            for neighbor in canonical_order(graph.adjacency(current)):
                if neighbor in parents:
                    continue
                parents[neighbor] = current
                if owner.get(neighbor, 0) != 0:
                    return _unwind(parents, neighbor)
                next_frontier.append(neighbor)
        frontier = next_frontier
    raise ValueError("components lie in different connected pieces of the graph")


def _unwind(parents: Dict[Node, Optional[Node]], last: Node) -> List[Node]:
    path: List[Node] = [last]
    step: Optional[Node] = parents[last]
    while step is not None:
        path.append(step)
        step = parents[step]
    path.reverse()
    return path


__all__ = [
    "connect_weakly",
    "greedy_mwds",
    "greedy_mwds_wcds",
    "packing_lower_bound",
    "two_hop_packing",
]
