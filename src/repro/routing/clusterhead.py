"""Clusterhead unicast routing over the WCDS spanner (Section 4.2).

The paper's routing scheme: adjacent pairs talk directly; otherwise the
packet goes to the source's clusterhead (an MIS-dominator in its
1HopDomList), travels clusterhead-to-clusterhead across the dominator
overlay — each overlay hop expanded to a concrete 2-hop path (via the
2HopDomList) or 3-hop path through an additional-dominator (via the
3HopDomList) — and finally drops from the destination's clusterhead to
the destination.

Every expanded hop is a black edge, so routed paths live entirely in
the weakly induced spanner, and the stretch inherits Theorem 11's
``3·h + 2`` bound (plus the constant endpoints detour, measured by the
routing benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import bfs_distances, shortest_path
from repro.routing.overlay import OverlayPaths
from repro.wcds.base import WCDSResult, weakly_induced_subgraph


@dataclass(frozen=True)
class DominatorLists:
    """One node's routing state: the paper's three dominator lists."""

    one_hop: Tuple[Hashable, ...]
    two_hop: Dict[Hashable, Hashable]  # dominator -> first relay
    three_hop: Dict[Hashable, Tuple[Hashable, Hashable]]  # dominator -> (v, x)


class ClusterheadRouter:
    """Table-driven unicast routing over an Algorithm II WCDS.

    If the result came from :func:`algorithm2_distributed`, the exact
    dominator lists the protocol built are reused; for a centralized
    result equivalent lists are synthesized from the graph.
    """

    def __init__(self, graph: Graph, result: WCDSResult) -> None:
        self.graph = graph
        self.result = result
        self.mis = set(result.mis_dominators)
        self.dominators = set(result.dominators)
        self.lists = self._build_lists()
        self._overlay_next: Dict[Hashable, Dict[Hashable, Hashable]] = {}
        self._build_overlay_tables()

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_lists(self) -> Dict[Hashable, DominatorLists]:
        node_state = self.result.meta.get("node_state")
        lists: Dict[Hashable, DominatorLists] = {}
        if node_state is not None:
            for node, state in node_state.items():
                lists[node] = DominatorLists(
                    one_hop=tuple(canonical_order(state["one_hop_dom"])),
                    two_hop=dict(state["two_hop_dom"]),
                    three_hop=dict(state["three_hop_dom"]),
                )
            return lists
        # Synthesize from the graph: same information the protocol
        # would have collected.
        adjacency = self.graph.adjacency
        for node in self.graph.nodes():
            one_hop = tuple(canonical_order(adjacency(node) & self.mis))
            two_hop: Dict[Hashable, Hashable] = {}
            three_hop: Dict[Hashable, Tuple[Hashable, Hashable]] = {}
            if node in self.mis:
                # Only MIS-dominators in the 3-hop ball can be listed.
                dist = bfs_distances(self.graph, node, cutoff=3)
                ball = [
                    other for other, hops in dist.items()
                    if hops >= 2 and other in self.mis
                ]
                for other in canonical_order(ball):
                    if dist[other] == 2:
                        two_hop[other] = min(adjacency(node) & adjacency(other))
                    else:
                        hop = self._three_hop_path(node, other)
                        if hop is not None:
                            three_hop[other] = hop
            lists[node] = DominatorLists(one_hop, two_hop, three_hop)
        return lists

    def _three_hop_path(
        self, u: Hashable, w: Hashable
    ) -> Optional[Tuple[Hashable, Hashable]]:
        """Find ``(v, x)`` with ``u-v-x-w`` where ``v`` is a dominator,
        so both expanded edges are black.

        ``u`` and ``w`` are 3 hops apart, so a neighbour ``v`` of ``u``
        is 2 hops from ``w`` exactly when the two share a neighbour.
        """
        adjacency = self.graph.adjacency
        near_w = adjacency(w)
        for v in sorted(adjacency(u) & self.dominators):
            common = adjacency(v) & near_w
            if common:
                return v, min(common)
        return None

    def _build_overlay_tables(self) -> None:
        """Shortest-path next-hop tables on the dominator overlay.

        Overlay nodes are MIS-dominators; overlay edges join dominators
        with a known 2- or 3-hop realization.  Edges are weighted by
        realization hop count so routes minimize real hops.
        """
        overlay: Dict[Hashable, Dict[Hashable, int]] = {u: {} for u in self.mis}
        for u in self.mis:
            entry = self.lists[u]
            for w in entry.two_hop:
                if w in overlay:
                    overlay[u][w] = 2
                    overlay[w][u] = 2
            for w in entry.three_hop:
                if w in overlay:
                    overlay[u][w] = min(overlay[u].get(w, 3), 3)
                    overlay[w][u] = min(overlay[w].get(u, 3), 3)
        paths = OverlayPaths(overlay)
        for source in canonical_order(self.mis):
            self._overlay_next[source] = paths.first_hops(source)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def clusterhead_of(self, node: Hashable) -> Hashable:
        """A node's clusterhead: itself if an MIS-dominator, else the
        smallest dominator in its 1HopDomList."""
        if node in self.mis:
            return node
        one_hop = self.lists[node].one_hop
        if not one_hop:
            raise ValueError(f"node {node!r} has no dominator neighbor")
        return min(one_hop)

    def expand_overlay_hop(self, u: Hashable, w: Hashable) -> List[Hashable]:
        """The concrete node path realizing overlay edge ``u -> w``
        (excluding ``u``, including ``w``)."""
        entry = self.lists[u]
        if w in entry.two_hop:
            return [entry.two_hop[w], w]
        if w in entry.three_hop:
            v, x = entry.three_hop[w]
            return [v, x, w]
        reverse = self.lists[w]
        if u in reverse.two_hop:
            return [reverse.two_hop[u], w]
        if u in reverse.three_hop:
            # w knows the reverse entry (u, x, v): path w-x-v-u, so from
            # u the path is u-v-x-w.
            x, v = reverse.three_hop[u]
            return [v, x, w]
        raise KeyError(f"no realization for overlay edge ({u!r}, {w!r})")

    def route(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        """The routed node path from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        if self.graph.has_edge(src, dst):
            return [src, dst]
        path = [src]
        head_src = self.clusterhead_of(src)
        head_dst = self.clusterhead_of(dst)
        if head_src != src:
            path.append(head_src)
        current = head_src
        while current != head_dst:
            nxt = self._overlay_next[current].get(head_dst)
            if nxt is None:
                raise RuntimeError(
                    f"overlay disconnects {head_src!r} from {head_dst!r}"
                )
            path.extend(self.expand_overlay_hop(current, nxt))
            current = nxt
        if dst != head_dst:
            path.append(dst)
        return _collapse_repeats(path)

    def validate_path(self, path: List[Hashable]) -> None:
        """Assert the path is walkable: every hop is a graph edge, and —
        except for the single-hop direct shortcut the paper allows
        between adjacent nodes — every hop is a black edge."""
        for a, b in zip(path, path[1:]):
            if not self.graph.has_edge(a, b):
                raise AssertionError(f"({a!r}, {b!r}) is not an edge")
        if len(path) <= 2:
            return
        for a, b in zip(path, path[1:]):
            if a not in self.dominators and b not in self.dominators:
                raise AssertionError(f"({a!r}, {b!r}) is not a black edge")


def spanner_route(
    graph: Graph, result: WCDSResult, src: Hashable, dst: Hashable
) -> Optional[List[Hashable]]:
    """Reference routing: a minimum-hop path in the weakly induced
    spanner (what the paper's "unicast routing ... will follow the
    min-hop path in the spanner G'" describes), with the direct edge
    shortcut for adjacent pairs."""
    if src == dst:
        return [src]
    if graph.has_edge(src, dst):
        return [src, dst]
    spanner = weakly_induced_subgraph(graph, result.dominators)
    return shortest_path(spanner, src, dst)


def _collapse_repeats(path: List[Hashable]) -> List[Hashable]:
    collapsed = [path[0]]
    for node in path[1:]:
        if node != collapsed[-1]:
            collapsed.append(node)
    return collapsed
