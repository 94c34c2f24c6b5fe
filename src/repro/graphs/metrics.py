"""Summary statistics for graphs and deployments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    all_pairs_hop_distances,
    connected_components,
    is_connected,
)


@dataclass(frozen=True)
class GraphStats:
    """A snapshot of the structural statistics of a graph."""

    num_nodes: int
    num_edges: int
    min_degree: int
    max_degree: int
    average_degree: float
    num_components: int
    connected: bool

    def as_row(self) -> Dict[str, float]:
        """The stats as a flat dict, for table printing."""
        return {
            "n": self.num_nodes,
            "m": self.num_edges,
            "min_deg": self.min_degree,
            "max_deg": self.max_degree,
            "avg_deg": self.average_degree,
            "components": self.num_components,
        }


def graph_stats(graph: Graph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    degrees: List[int] = [graph.degree(node) for node in graph.nodes()]
    num_nodes = graph.num_nodes
    num_edges = graph.num_edges
    return GraphStats(
        num_nodes=num_nodes,
        num_edges=num_edges,
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        average_degree=(2.0 * num_edges / num_nodes) if num_nodes else 0.0,
        num_components=len(connected_components(graph)),
        connected=is_connected(graph),
    )


@dataclass(frozen=True)
class HopDistanceStats:
    """Hop-distance profile over all connected ordered pairs."""

    num_pairs: int  # ordered (source, target) pairs, source != target
    mean_hops: float
    max_hops: int  # hop diameter over the reachable pairs

    def as_row(self) -> Dict[str, float]:
        """The stats as a flat dict, for table printing."""
        return {
            "pairs": self.num_pairs,
            "mean_hops": self.mean_hops,
            "max_hops": self.max_hops,
        }


def hop_distance_stats(graph: Graph) -> HopDistanceStats:
    """Mean and maximum hop distance over all connected pairs.

    The all-pairs sweep is
    :func:`repro.graphs.traversal.all_pairs_hop_distances`.
    Disconnected pairs are excluded (not infinite).
    """
    distances = all_pairs_hop_distances(graph)
    num_pairs = 0
    total = 0
    max_hops = 0
    for per_source in distances.values():
        reachable = len(per_source) - 1  # drop the source itself
        if reachable <= 0:
            continue
        num_pairs += reachable
        total += sum(per_source.values())  # source contributes 0
        row_max = max(per_source.values())
        if row_max > max_hops:
            max_hops = row_max
    return HopDistanceStats(
        num_pairs=num_pairs,
        mean_hops=(total / num_pairs) if num_pairs else 0.0,
        max_hops=max_hops,
    )


def edges_per_node(graph: Graph) -> float:
    """m / n — the sparseness measure behind "linear edges".

    A spanner family is sparse when this ratio stays bounded by a
    constant as n grows; the dense UDG itself has m/n = Θ(n).
    """
    if graph.num_nodes == 0:
        return 0.0
    return graph.num_edges / graph.num_nodes
