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

from array import array
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import shortest_path
from repro.routing.overlay import OverlayPaths
from repro.wcds.base import WCDSResult, weakly_induced_subgraph
from repro.wcds.connectors import mis_rows, three_hop_relays


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
    result equivalent lists are synthesized from the graph in one scan
    of its shared numbering (:func:`repro.wcds.connectors.three_hop_relays`
    with ``v`` restricted to dominators), which ranks by id: mixed ids
    that do not compare raise :class:`TypeError`.
    """

    def __init__(self, graph: Graph, result: WCDSResult) -> None:
        self.graph = graph
        self.result = result
        self.mis = set(result.mis_dominators)
        self.dominators = set(result.dominators)
        self.lists = self._build_lists()
        self._build_overlay_tables()
        # Route memos, filled on first use: node -> its clusterhead's
        # overlay number, and overlay hop ``at * n + next`` -> its leg.
        self._head_at: Dict[Hashable, int] = {}
        self._legs: Dict[int, List[Hashable]] = {}

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
        # Synthesize from the graph: the information the protocol would
        # have collected, in one scan of the numbered graph.
        numbering = self.graph.numbering()
        if not numbering.natural:
            raise TypeError(
                "routing lists rank nodes by id: the ids must be mutually comparable"
            )
        nodes, index, adj = numbering
        is_mis = bytearray(node in self.mis for node in nodes)
        is_dominator = bytearray(node in self.dominators for node in nodes)
        rows = mis_rows(adj, is_mis)
        # Three hops away through a dominator v, so both expanded edges
        # are black.
        three_hops: Dict[int, Dict[Hashable, Tuple[Hashable, Hashable]]] = {}
        heads = [u for u, flag in enumerate(is_mis) if flag]
        for u, w, v, x in three_hop_relays(adj, rows, heads, is_dominator, upper=False):
            three_hops.setdefault(u, {})[nodes[w]] = (nodes[v], nodes[x])
        for node in self.graph.nodes():
            u = index[node]
            one_hop = tuple([nodes[w] for w in rows[u]])
            two_hop: Dict[Hashable, Hashable] = {}
            if is_mis[u]:
                # An MIS node w two hops away is listed with the minimum
                # common neighbour: the first v of u's row reaching it.
                near: Dict[int, int] = {}
                for v in adj[u]:
                    for w in rows[v]:
                        if w not in near:
                            near[w] = v
                near.pop(u, None)
                for w in rows[u]:
                    near.pop(w, None)
                for w in sorted(near):
                    two_hop[nodes[w]] = nodes[near[w]]
            lists[node] = DominatorLists(one_hop, two_hop, three_hops.get(u, {}))
        return lists

    def _build_overlay_tables(self) -> None:
        """Shortest-path next-hop table on the dominator overlay.

        Overlay nodes are MIS-dominators; overlay edges join dominators
        with a known 2- or 3-hop realization.  Edges are weighted by
        realization hop count so routes minimize real hops.  Every
        row comes from one all-sources pass of :class:`OverlayPaths`,
        kept as one flat int matrix: entry ``s * n + u`` is the index
        of the first hop from dominator ``s`` to dominator ``u``, or
        ``-1`` where the overlay disconnects them.
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
        self._heads = paths.nodes
        self._head_index = paths.index
        # An ``array`` of the matrix's C type reads an entry as a plain
        # int, two to three times cheaper than indexing the numpy matrix.
        first_hop, _ = paths.all_pairs()
        self._next_head = array(first_hop.dtype.char, first_hop.tobytes())

    def first_hops(self, source: Hashable) -> Dict[Hashable, Hashable]:
        """The first overlay hop from MIS-dominator ``source`` to every
        other MIS-dominator the overlay connects it to."""
        heads = self._heads
        n = len(heads)
        at = self._head_index[source]
        row = self._next_head[at * n:(at + 1) * n].tolist()
        return {
            heads[head]: heads[hop]
            for head, hop in enumerate(row)
            if hop >= 0 and head != at
        }

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

    def _head_number(self, node: Hashable) -> int:
        """The overlay number of ``node``'s clusterhead, memoized."""
        at = self._head_at.get(node)
        if at is None:
            at = self._head_at[node] = self._head_index[self.clusterhead_of(node)]
        return at

    def route(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        """The routed node path from ``src`` to ``dst`` (inclusive).

        Each node's clusterhead number and each overlay hop's expanded
        leg are memoized on first use, so a repeated walk only reads
        the first-hop matrix and copies legs.  No node repeats
        consecutively: a leg starts at a neighbour of the clusterhead
        it leaves, and ``src`` and ``dst`` are added only when they
        differ from their clusterheads.
        """
        if src == dst:
            return [src]
        if self.graph.has_edge(src, dst):
            return [src, dst]
        at = start = self._head_number(src)
        goal = self._head_number(dst)
        heads = self._heads
        path = [src]
        if heads[at] != src:
            path.append(heads[at])
        next_head = self._next_head
        legs = self._legs
        n = len(heads)
        while at != goal:
            nxt = next_head[at * n + goal]
            if nxt < 0:
                raise RuntimeError(
                    f"overlay disconnects {heads[start]!r} from {heads[goal]!r}"
                )
            hop = at * n + nxt
            leg = legs.get(hop)
            if leg is None:
                leg = legs[hop] = self.expand_overlay_hop(heads[at], heads[nxt])
            path += leg
            at = nxt
        if dst != heads[goal]:
            path.append(dst)
        return path

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

