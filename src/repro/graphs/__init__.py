"""Graph substrate: core graph type, unit-disk graphs, generators,
traversals, and summary metrics."""

from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph, build_udg
from repro.graphs.generators import (
    clustered_udg,
    connected_random_udg,
    density_sweep_sides,
    grid_udg,
    jittered_grid,
    line_udg,
    paper_figure2_udg,
    perturbed_grid_udg,
    uniform_random_udg,
)
from repro.graphs.traversal import (
    all_pairs_hop_distances,
    bfs_distances,
    bfs_tree,
    connected_components,
    diameter,
    eccentricity,
    hop_distance,
    is_connected,
    k_hop_neighborhood,
    multi_source_hop_distances,
    nodes_at_exact_distance,
    set_distance,
    shortest_path,
)
from repro.graphs.metrics import (
    GraphStats,
    HopDistanceStats,
    edges_per_node,
    graph_stats,
    hop_distance_stats,
)
from repro.graphs.serialization import load_topology, save_topology

__all__ = [
    "Graph",
    "UnitDiskGraph",
    "build_udg",
    "clustered_udg",
    "connected_random_udg",
    "density_sweep_sides",
    "grid_udg",
    "jittered_grid",
    "line_udg",
    "paper_figure2_udg",
    "perturbed_grid_udg",
    "uniform_random_udg",
    "all_pairs_hop_distances",
    "bfs_distances",
    "bfs_tree",
    "connected_components",
    "diameter",
    "eccentricity",
    "hop_distance",
    "is_connected",
    "k_hop_neighborhood",
    "multi_source_hop_distances",
    "nodes_at_exact_distance",
    "set_distance",
    "shortest_path",
    "GraphStats",
    "HopDistanceStats",
    "edges_per_node",
    "graph_stats",
    "hop_distance_stats",
    "load_topology",
    "save_topology",
]
