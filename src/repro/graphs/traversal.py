"""Graph traversals: BFS, hop distances, components, diameter.

Hop distance is the central metric of the paper — dilation, the two/three
hop separation lemmas, and the routing stretch bounds are all stated in
hops — so everything here is breadth-first based and unweighted.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.graphs.graph import Graph, Node


def bfs_distances(
    graph: Graph, source: Node, cutoff: Optional[int] = None
) -> Dict[Node, int]:
    """Hop distance from ``source`` to every reachable node.

    ``cutoff`` stops the search at that many hops (inclusive), which the
    MIS property checks use for cheap 2- and 3-hop neighborhoods.
    """
    distances: Dict[Node, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if cutoff is not None and depth >= cutoff:
            continue
        for nbr in graph.adjacency(node):
            if nbr not in distances:
                distances[nbr] = depth + 1
                frontier.append(nbr)
    return distances


def bfs_tree(graph: Graph, source: Node) -> Dict[Node, Optional[Node]]:
    """BFS parent map rooted at ``source``; the root maps to ``None``.

    This is the spanning tree T that Algorithm I's level calculation
    phase runs over: a node's level is its tree depth.
    """
    parents: Dict[Node, Optional[Node]] = {source: None}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nbr in graph.adjacency(node):
            if nbr not in parents:
                parents[nbr] = node
                frontier.append(nbr)
    return parents


def shortest_path(graph: Graph, source: Node, target: Node) -> Optional[List[Node]]:
    """A minimum-hop path from ``source`` to ``target``; ``None`` if
    disconnected.  The path includes both endpoints."""
    if source == target:
        return [source]
    parents: Dict[Node, Node] = {}
    visited: Set[Node] = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nbr in graph.adjacency(node):
            if nbr in visited:
                continue
            parents[nbr] = node
            if nbr == target:
                return _unwind(parents, source, target)
            visited.add(nbr)
            frontier.append(nbr)
    return None


def hop_distance(graph: Graph, source: Node, target: Node) -> Optional[int]:
    """Minimum number of hops between two nodes; ``None`` if disconnected."""
    if source == target:
        return 0
    distances = bfs_distances(graph, source)
    return distances.get(target)


def set_distance(graph: Graph, from_set: Iterable[Node], to_set: Iterable[Node]) -> Optional[int]:
    """Minimum hop distance between two node sets (multi-source BFS).

    Lemma 3 and Theorem 4 reason about the distance between two
    complementary subsets of the MIS; this computes it exactly.
    """
    sources = set(from_set)
    targets = set(to_set)
    if not sources or not targets:
        raise ValueError("both sets must be non-empty")
    if sources & targets:
        return 0
    distances: Dict[Node, int] = {node: 0 for node in sources}
    frontier = deque(sources)
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        for nbr in graph.adjacency(node):
            if nbr in distances:
                continue
            if nbr in targets:
                return depth + 1
            distances[nbr] = depth + 1
            frontier.append(nbr)
    return None


def connected_components(graph: Graph) -> List[Set[Node]]:
    """All connected components, as a list of node sets."""
    remaining: Set[Node] = set(graph.nodes())
    components: List[Set[Node]] = []
    while remaining:
        seed = next(iter(remaining))
        component = set(bfs_distances(graph, seed))
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as
    connected, and a single node trivially is)."""
    if graph.num_nodes <= 1:
        return True
    adjacency = graph.adjacency
    seed = next(iter(graph.nodes()))
    # Reachability only: a set and a stack, no distances.
    reached = {seed}
    todo = [seed]
    while todo:
        for nbr in adjacency(todo.pop()):
            if nbr not in reached:
                reached.add(nbr)
                todo.append(nbr)
    return len(reached) == graph.num_nodes


def multi_source_hop_distances(
    graph: Graph, sources: Sequence[Node]
) -> Dict[Node, Dict[Node, int]]:
    """Hop distances from each of ``sources`` to every reachable node.

    One :func:`bfs_distances` per source on a small graph; from
    :data:`~repro.kernels.AUTO_THRESHOLD` nodes the packed multi-source
    sweep :func:`repro.kernels.bfs.vector_hop_distances`.  Both return
    exactly the same per-source dicts (reachable nodes only).
    """
    from repro.kernels import use_vector, vector_hop_distances

    if use_vector(graph.num_nodes):
        return vector_hop_distances(graph, sources)
    return {source: bfs_distances(graph, source) for source in sources}


def all_pairs_hop_distances(graph: Graph) -> Dict[Node, Dict[Node, int]]:
    """Hop distances between all pairs (see
    :func:`multi_source_hop_distances`)."""
    return multi_source_hop_distances(graph, list(graph.nodes()))


def eccentricity(graph: Graph, node: Node) -> int:
    """Maximum hop distance from ``node`` to any reachable node."""
    distances = bfs_distances(graph, node)
    return max(distances.values())


def diameter(graph: Graph) -> int:
    """Hop diameter of a connected graph.

    Raises ``ValueError`` on a disconnected or empty graph.
    """
    if graph.num_nodes == 0:
        raise ValueError("diameter of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("diameter of a disconnected graph is undefined")
    return max(eccentricity(graph, node) for node in graph.nodes())


def k_hop_neighborhood(graph: Graph, node: Node, k: int) -> Set[Node]:
    """Nodes within ``k`` hops of ``node`` (excluding ``node`` itself)."""
    reached = bfs_distances(graph, node, cutoff=k)
    reached.pop(node, None)
    return set(reached)


def nodes_at_exact_distance(graph: Graph, node: Node, k: int) -> Set[Node]:
    """Nodes at hop distance exactly ``k`` from ``node``."""
    reached = bfs_distances(graph, node, cutoff=k)
    return {other for other, dist in reached.items() if dist == k}


def _unwind(parents: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path
