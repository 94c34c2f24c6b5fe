"""Local maintenance of an Algorithm II WCDS under mobility.

Section 4.2 sketches maintenance and defers details to future work; the
key stated properties are: *maintain the MIS at all times*, keep
3-hop-dominator information so the lower-id MIS node of each 3-hop pair
keeps an additional-dominator, and — crucially — "the nodes that get
affected are within three-hop distance" of a topology change.

This module implements a concrete rule with those properties:

* **Independence repair** — when two MIS-dominators become adjacent
  (a gained link), the higher id one is demoted to gray.
* **Coverage repair** — a node left without a dominator neighbor
  promotes itself if it has the lowest id among its uncovered
  neighbors, else waits for a lower-id uncovered neighbor to promote
  (iterated to a fixpoint, exactly the id-greedy rule restricted to the
  uncovered region).
* **Connector repair** — for every MIS-dominator whose 3-hop
  neighborhood changed, its 3-hop MIS pairs are recomputed: stale
  additional-dominators are released and missing ones selected by the
  lower-id endpoint.

The maintainer records, per event batch, which nodes changed role and
their hop distance from the nearest event endpoint, so the locality
claim is measurable (see the maintenance benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Set, Tuple

from repro.graphs.graph import canonical_order
from repro.graphs.traversal import bfs_distances, is_connected
from repro.graphs.udg import UnitDiskGraph
from repro.mis.properties import is_independent_set, is_dominating_set
from repro.mobility.waypoint import LinkEvents
from repro.wcds.base import WCDSResult, weakly_induced_subgraph
from repro.wcds.algorithm2 import algorithm2_centralized
from repro.wcds.connectors import mis_rows, number_nodes, three_hop_relays

Pair = Tuple[Hashable, Hashable]


@dataclass
class MaintenanceReport:
    """What one maintenance round did."""

    promoted_mis: Set[Hashable] = field(default_factory=set)
    demoted_mis: Set[Hashable] = field(default_factory=set)
    added_connectors: Set[Hashable] = field(default_factory=set)
    removed_connectors: Set[Hashable] = field(default_factory=set)
    max_distance_to_event: int = 0

    @property
    def touched(self) -> Set[Hashable]:
        """All nodes whose role changed."""
        return (
            self.promoted_mis
            | self.demoted_mis
            | self.added_connectors
            | self.removed_connectors
        )


class MaintainedWCDS:
    """An Algorithm II WCDS kept valid across topology changes."""

    def __init__(self, udg: UnitDiskGraph) -> None:
        self.udg = udg
        initial = algorithm2_centralized(udg)
        self.mis: Set[Hashable] = set(initial.mis_dominators)
        # connector bookkeeping: pair of MIS ids -> chosen intermediate
        self.connectors: Dict[Pair, Hashable] = {
            (u, w): v for u, w, v in initial.meta["pairs_covered"]
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def additional(self) -> Set[Hashable]:
        """Current additional-dominators."""
        return set(self.connectors.values()) - self.mis

    def result(self) -> WCDSResult:
        """Snapshot as a :class:`WCDSResult`."""
        return WCDSResult(
            dominators=frozenset(self.mis | self.additional),
            mis_dominators=frozenset(self.mis),
            additional_dominators=frozenset(self.additional),
            meta={"maintained": True},
        )

    def is_valid(self) -> bool:
        """Whether the current set is a WCDS (connected graphs only;
        on a disconnected snapshot, per-component domination and weak
        connectivity are checked instead)."""
        dominators = self.mis | self.additional
        if not is_dominating_set(self.udg, dominators):
            return False
        if is_connected(self.udg):
            return is_connected(weakly_induced_subgraph(self.udg, dominators))
        # Disconnected graph: every component must be internally fine.
        spanner = weakly_induced_subgraph(self.udg, dominators)
        graph_dist = {
            node: bfs_distances(self.udg, node) for node in self.udg.nodes()
        }
        spanner_dist = {
            node: set(bfs_distances(spanner, node)) for node in spanner.nodes()
        }
        return all(
            set(graph_dist[node]) <= spanner_dist[node] for node in self.udg.nodes()
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def node_off(self, node: Hashable) -> MaintenanceReport:
        """Handle a radio turning off: remove it and repair locally.

        The departed node's former neighbors are the event endpoints;
        its dominator roles (MIS membership, connector duty) are
        released before the standard repair runs.
        """
        if node not in self.udg:
            raise KeyError(f"unknown node {node!r}")
        neighbors = tuple(self.udg.adjacency(node))
        self.udg.remove_node(node)
        was_mis = node in self.mis
        self.mis.discard(node)
        for pair in [
            p for p, via in self.connectors.items() if via == node or node in p
        ]:
            self.connectors.pop(pair)
        if not neighbors:
            report = MaintenanceReport()
            if was_mis:
                report.demoted_mis.add(node)
            return report
        # The lost links all had `node` as one endpoint; the surviving
        # endpoints seed the repair (the departed node itself is
        # filtered out of every graph lookup).
        report = self.apply_events(
            LinkEvents(gained=(), lost=tuple((node, nbr) for nbr in neighbors))
        )
        if was_mis:
            report.demoted_mis.add(node)
        return report

    def node_on(self, node: Hashable, position) -> MaintenanceReport:
        """Handle a radio turning on at ``position``: add it and repair.

        The new node joins gray if it hears a dominator, else the
        coverage repair promotes it; its arrival can also create new
        2-/3-hop dominator pairs, handled by the connector repair.
        """
        neighbors = self.udg.add_node_at(node, position)
        events = LinkEvents(
            gained=tuple((node, nbr) for nbr in neighbors), lost=()
        )
        if events.is_empty:
            # An isolated newcomer must dominate itself.
            self.mis.add(node)
            report = MaintenanceReport()
            report.promoted_mis.add(node)
            return report
        return self.apply_events(events)

    def apply_events(self, events: LinkEvents) -> MaintenanceReport:
        """Repair the WCDS after one batch of link events."""
        report = MaintenanceReport()
        if events.is_empty:
            return report
        self._repair_independence(events, report)
        self._repair_coverage(events, report)
        self._repair_connectors(events, report)
        self._measure_locality(events, report)
        return report

    def _repair_independence(self, events: LinkEvents, report: MaintenanceReport) -> None:
        for u, v in events.gained:
            if u in self.mis and v in self.mis:
                loser = max(u, v)
                self.mis.discard(loser)
                report.demoted_mis.add(loser)

    def _repair_coverage(self, events: LinkEvents, report: MaintenanceReport) -> None:
        """Re-dominate uncovered nodes with the id-greedy rule, seeded
        from the event region and iterated to a fixpoint (demotions can
        uncover nodes farther out, but never beyond the 3-hop ball)."""
        candidates = set(events.endpoints) | report.demoted_mis
        for node in report.demoted_mis:
            candidates.update(self.udg.adjacency(node))
        while True:
            uncovered = sorted(
                node
                for node in candidates
                if node in self.udg
                and node not in self.mis
                and not (self.udg.adjacency(node) & self.mis)
            )
            if not uncovered:
                return
            progressed = False
            for node in uncovered:
                neighbors = self.udg.adjacency(node)
                if neighbors & self.mis:
                    continue  # covered by an earlier promotion this round
                lower_uncovered = [
                    nbr
                    for nbr in neighbors
                    if nbr < node and not (self.udg.adjacency(nbr) & self.mis)
                    and nbr not in self.mis
                ]
                if lower_uncovered:
                    candidates.update(lower_uncovered)
                    continue
                self.mis.add(node)
                report.promoted_mis.add(node)
                progressed = True
            if not progressed:
                # Remaining uncovered nodes all defer to a lower-id
                # uncovered neighbor; promote the global minimum to
                # break the chain (matches the id-greedy order).
                node = min(uncovered)
                self.mis.add(node)
                report.promoted_mis.add(node)

    def _repair_connectors(self, events: LinkEvents, report: MaintenanceReport) -> None:
        """Recompute 3-hop pair coverage for MIS nodes near the events."""
        affected = set(events.endpoints) | report.promoted_mis | report.demoted_mis
        affected_mis = {
            m for m in self._ball(n for n in affected if n in self.udg) if m in self.mis
        }
        before = set(self.connectors.values())
        # Drop connectors whose realized path u-v-x-w broke (the break
        # can be an edge between two nodes that are themselves far from
        # the role holders, so this check is per-entry, not per-event).
        for pair, via in list(self.connectors.items()):
            u, w = pair
            intact = (
                u in self.mis
                and w in self.mis
                and via in self.udg
                and self.udg.has_edge(u, via)
                and bool(self.udg.adjacency(via) & self.udg.adjacency(w))
            )
            if not intact:
                self.connectors.pop(pair)
                affected_mis.update(n for n in pair if n in self.mis)
        # Drop stale pairs involving affected dominators.
        for pair in [p for p in self.connectors if set(p) & (affected_mis | affected)]:
            self.connectors.pop(pair)
        for pair, via in list(self.connectors.items()):
            if via in affected or set(pair) & affected_mis:
                self.connectors.pop(pair, None)
        # Re-cover the affected dominators' 3-hop pairs.  Either endpoint
        # may be the affected one and the lower one picks, so every MIS
        # node within three hops leads; the kernel reads each leader's
        # 3-hop ball, so number exactly those balls.
        leaders = {m for m in self._ball(affected_mis) if m in self.mis}
        nodes, _, adj = number_nodes(self.udg, self._ball(leaders))
        is_mis = bytearray(node in self.mis for node in nodes)
        ranks = [i for i, node in enumerate(nodes) if node in leaders]
        for u, w, v, _ in three_hop_relays(adj, mis_rows(adj, is_mis), ranks):
            pair = (nodes[u], nodes[w])
            if pair not in self.connectors and not affected_mis.isdisjoint(pair):
                self.connectors[pair] = nodes[v]
        after = set(self.connectors.values())
        report.added_connectors.update(after - before - self.mis)
        report.removed_connectors.update(before - after - self.mis)

    def _ball(self, seeds: Iterable[Hashable], hops: int = 3) -> Set[Hashable]:
        """The nodes within ``hops`` hops of ``seeds``."""
        ball = set(seeds)
        frontier = list(ball)
        for _ in range(hops):
            frontier = [
                nbr
                for node in frontier
                for nbr in self.udg.adjacency(node)
                if nbr not in ball
            ]
            ball.update(frontier)
        return ball

    def _measure_locality(self, events: LinkEvents, report: MaintenanceReport) -> None:
        touched = report.touched
        if not touched:
            return
        sources = [node for node in events.endpoints if node in self.udg]
        if not sources:
            return
        # Multi-source BFS from the event endpoints.
        distances: Dict[Hashable, int] = {node: 0 for node in sources}
        frontier = list(sources)
        depth = 0
        while frontier and not touched <= set(distances):
            depth += 1
            next_frontier = []
            for node in frontier:
                for nbr in canonical_order(self.udg.adjacency(node)):
                    if nbr not in distances:
                        distances[nbr] = depth
                        next_frontier.append(nbr)
            frontier = next_frontier
        report.max_distance_to_event = max(
            distances.get(node, depth) for node in touched
        )
