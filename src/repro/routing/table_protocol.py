"""Distributed construction of the clusterhead routing tables.

Section 4.2 states that MIS-dominators (clusterheads) "maintain the
routing tables" over the dominator overlay; this module supplies the
missing mechanism as a standard link-state protocol run over the same
simulator as the WCDS construction:

1. every MIS-dominator assembles its overlay adjacency from the
   2HopDomList (cost-2 links) and 3HopDomList (cost-3 links) Algorithm
   II already built, and floods it as an LSA;
2. every node — gray relays included — rebroadcasts each LSA once
   (scoped flooding: n transmissions per LSA, n·|S| total);
3. at quiescence each dominator holds the complete overlay map and
   computes shortest paths locally to fill its next-clusterhead table.

The tables are checked against the centralized
:class:`~repro.routing.clusterhead.ClusterheadRouter` overlay: the
distributed distances must match exactly.  Both sides run the same
:class:`~repro.routing.overlay.OverlayPaths` kernel, so next hops can
differ only where the two overlays do (one-sided advertisements).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.routing.overlay import OverlayPaths
from repro.sim.batched import make_simulator
from repro.sim.config import SimConfig
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats
from repro.wcds.base import WCDSResult

LSA = "LSA"

OverlayLinks = Tuple[Tuple[Hashable, int], ...]
RoutingTable = Dict[Hashable, Tuple[Hashable, int]]


class LinkStateNode(ProtocolNode):
    """Floods dominator LSAs; dominators also collect them."""

    def __init__(
        self,
        ctx: NodeContext,
        is_dominator: bool,
        overlay_links: OverlayLinks,
    ) -> None:
        super().__init__(ctx)
        self.is_dominator = is_dominator
        self.overlay_links = overlay_links
        self.database: Dict[Hashable, OverlayLinks] = {}
        self._seen: Set[Hashable] = set()

    def on_start(self) -> None:
        if self.is_dominator:
            self._accept(self.node_id, self.overlay_links)
            self.ctx.broadcast(LSA, origin=self.node_id, links=self.overlay_links)
            self._seen.add(self.node_id)

    def on_message(self, msg: Message) -> None:
        if msg.kind != LSA:
            return
        origin = msg["origin"]
        if origin in self._seen:
            return
        self._seen.add(origin)
        self._accept(origin, msg["links"])
        self.ctx.broadcast(LSA, origin=origin, links=msg["links"])

    def _accept(self, origin: Hashable, links: OverlayLinks) -> None:
        if self.is_dominator:
            self.database[origin] = links

    def result(self) -> Dict[str, object]:
        if not self.is_dominator:
            return {"table": None}
        return {"table": _dijkstra_table(self.node_id, self.database)}


def _dijkstra_table(
    source: Hashable, database: Dict[Hashable, OverlayLinks]
) -> RoutingTable:
    """Next-clusterhead and distance to every known dominator.

    The overlay is treated as undirected: a link is usable if either
    endpoint advertised it (the relay-learned direction may be missing
    from one side's lists).  The shortest paths come from the same
    :class:`~repro.routing.overlay.OverlayPaths` kernel as the
    centralized router's, so tied next hops match its choice.
    """
    adjacency: Dict[Hashable, Dict[Hashable, int]] = {d: {} for d in database}
    for origin, links in database.items():
        for target, cost in links:
            if target not in adjacency:
                adjacency[target] = {}
            best = min(cost, adjacency[origin].get(target, cost))
            adjacency[origin][target] = best
            adjacency[target][origin] = best
    return OverlayPaths(adjacency).table(source)


def build_routing_tables(
    graph: Graph,
    result: WCDSResult,
    *,
    sim: Optional[SimConfig] = None,
) -> Tuple[Dict[Hashable, RoutingTable], SimStats]:
    """Run the link-state protocol; returns per-dominator tables.

    Requires a result carrying Algorithm II's per-node state (a
    distributed run); for a centralized result, synthesize the lists by
    constructing a :class:`ClusterheadRouter` instead.
    """
    node_state = result.meta.get("node_state")
    if node_state is None:
        raise ValueError(
            "build_routing_tables needs meta['node_state'] from "
            "algorithm2_distributed"
        )
    config = sim or SimConfig()
    mis = set(result.mis_dominators)

    def links_of(node: Hashable) -> OverlayLinks:
        state = node_state[node]
        links = [(w, 2) for w in state["two_hop_dom"]]
        links.extend((w, 3) for w in state["three_hop_dom"])
        return tuple(sorted(links, key=repr))

    simulator = make_simulator(
        graph,
        lambda ctx: LinkStateNode(
            ctx,
            ctx.node_id in mis,
            links_of(ctx.node_id) if ctx.node_id in mis else (),
        ),
        config,
    )
    stats = simulator.run()
    tables = {
        node: res["table"]
        for node, res in simulator.collect_results().items()
        if res["table"] is not None
    }
    return tables, stats
