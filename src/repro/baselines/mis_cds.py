"""MIS-based connected dominating set (Alzoubi, Wan, Frieder 2002).

The authors' own earlier line of work (references [2]-[5]): build an
MIS, then connect it into a CDS by adding the intermediate nodes of 2-
and 3-hop paths along a spanning tree of the MIS overlay.  On unit-disk
graphs the result is a constant-ratio CDS; here it is the "strongly
connected" sibling the WCDS algorithms are compared against — same MIS
core, different connection cost.
"""

from __future__ import annotations

from typing import Hashable, Set

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import bfs_distances, is_connected
from repro.mis.centralized import greedy_mis
from repro.mis.properties import mis_overlay_graph


def mis_tree_cds(graph: Graph) -> Set[Hashable]:
    """CDS = MIS plus connectors along an MIS-overlay spanning tree.

    The overlay joins MIS nodes within 3 hops (connected by Lemma 3);
    a BFS tree of the overlay is expanded edge by edge, adding the 1 or
    2 intermediate nodes of a shortest path in G for each tree edge
    (each step the canonically first neighbour closer to the parent).
    """
    if graph.num_nodes == 0:
        raise ValueError("CDS of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("MIS-tree CDS requires a connected graph")
    mis = greedy_mis(graph)
    if len(mis) == 1:
        return set(mis)
    overlay = mis_overlay_graph(graph, mis, max_hops=3)
    root = canonical_order(mis)[0]
    order = bfs_distances(overlay, root)
    if len(order) != len(mis):
        raise AssertionError("MIS overlay is disconnected (violates Lemma 3)")
    cds: Set[Hashable] = set(mis)
    for node in mis:
        if node == root:
            continue
        parent = canonical_order(
            nbr for nbr in overlay.adjacency(node) if order[nbr] == order[node] - 1
        )[0]
        # Not the first path a BFS meets: that follows the adjacency
        # sets' iteration order, which depends on how they were built.
        to_parent = bfs_distances(graph, parent, cutoff=3)
        if node not in to_parent:
            raise AssertionError("overlay edge without a <=3-hop path")
        hop = node
        while to_parent[hop] > 1:
            hop = canonical_order(
                nbr for nbr in graph.adjacency(hop)
                if to_parent.get(nbr) == to_parent[hop] - 1
            )[0]
            cds.add(hop)
    if not is_connected(graph.subgraph(cds)):
        raise AssertionError("MIS-tree CDS is not connected")
    return cds
