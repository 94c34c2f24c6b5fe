"""Algorithm II: fully localized WCDS with a low-dilation spanner (§4.2).

The WCDS U is the union of two node sets:

* **MIS-dominators** S — the id-ranked greedy MIS, built by the same
  marking protocol as Algorithm I but ranked by bare node id (no
  spanning tree, no leader: fully localized);
* **additional-dominators** C — for every pair of MIS-dominators exactly
  three hops apart, the lower-id one selects one intermediate node on a
  3-hop path between them.

The message protocol follows the paper's step list:

1. ``MIS-DOMINATOR`` / ``GRAY`` — the marking phase declarations.
2. A gray node that has heard a declaration from *every* neighbor
   broadcasts ``1-HOP-DOMINATORS`` with its 1HopDomList.
3. Gray nodes and MIS-dominators build 2HopDomLists from those.
4. A gray node that has heard ``1-HOP-DOMINATORS`` from every gray
   neighbor broadcasts ``2-HOP-DOMINATORS`` with its 2HopDomList.
5. An MIS-dominator ``u`` hearing, via neighbor ``v``, of a dominator
   ``w`` with ``u < w`` that is in neither its 2- nor 3HopDomList adds
   ``(w, v, x)`` to its 3HopDomList and unicasts ``SELECTION`` to ``v``.
6. ``v`` declares itself an additional-dominator with an
   ``ADDITIONAL-DOMINATOR`` broadcast carrying ``(v, u, x, w)``.
7. The named intermediate ``x`` relays the declaration to ``w`` (the
   paper has ``w`` "receive" the message but ``w`` is two hops from
   ``v``, so a one-hop relay through ``x`` is required; see DESIGN.md),
   and ``w`` records the reverse entry ``(u, x, v)``.

Every node sends O(1) messages, giving Theorem 12's O(n) message and
O(n) time bounds.  An asynchrony note: with randomized latencies a
``2-HOP-DOMINATORS`` message can outrun a ``1-HOP-DOMINATORS`` message
on another link, so a dominator may select an additional-dominator for
a pair that later turns out to be 2 hops apart.  That only ever *adds*
a constant number of redundant dominators — the WCDS stays valid and
within the same packing bounds — and under the default synchronous
latency the race cannot occur.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.mis.centralized import greedy_mis
from repro.mis.distributed import BLACK_STATE, GRAY_STATE, WHITE_STATE, MisNode
from repro.mis.ranking import id_ranking
from repro.obs.tracing import get_tracer
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext
from repro.sim.stats import SimStats
from repro.transport.reliable import aggregate_transport
from repro.wcds.base import BackboneResult, WCDSResult
from repro.wcds.connectors import mis_rows, three_hop_relays

MIS_DOMINATOR = "MIS-DOMINATOR"
GRAY = "GRAY"
ONE_HOP_DOMINATORS = "1-HOP-DOMINATORS"
TWO_HOP_DOMINATORS = "2-HOP-DOMINATORS"
SELECTION = "SELECTION"
ADDITIONAL_DOMINATOR = "ADDITIONAL-DOMINATOR"
ADDITIONAL_RELAY = "ADDITIONAL-RELAY"

#: Telemetry grouping of Algorithm II's message kinds into the paper's
#: logical phases.  Unlike Algorithm I the phases interleave inside one
#: simulation run, so each phase's span carries its message count and
#: its simulated-time activity window rather than a wall-clock slice.
PHASE_KINDS = {
    "marking": (MIS_DOMINATOR, GRAY),
    "dominator_lists": (ONE_HOP_DOMINATORS, TWO_HOP_DOMINATORS),
    "selection": (SELECTION, ADDITIONAL_DOMINATOR, ADDITIONAL_RELAY),
}


class Algorithm2Node(MisNode):
    """Full per-node state machine for Algorithm II.

    Both "heard from every ..." barriers are counts; the live-neighbor
    view can change without a message, so ``_undeclared`` is re-derived
    from ``ctx.neighbors`` whenever ``ctx.epoch`` has moved (see
    docs/PROTOCOLS.md §3).
    """

    black_kind = MIS_DOMINATOR
    gray_kind = GRAY

    def __init__(self, ctx: NodeContext, ranks) -> None:
        super().__init__(ctx, ranks)
        self.is_additional = False
        self.one_hop_dom: Set[Hashable] = set()
        self.two_hop_dom: Dict[Hashable, Hashable] = {}  # dominator -> via
        self.three_hop_dom: Dict[Hashable, Tuple[Hashable, Hashable]] = {}
        self._declared: Set[Hashable] = set()
        self._undeclared = len(ctx.audience)
        #: The live view ``_undeclared`` was last counted over; ``None``
        #: until the epoch first moves (then the audience holds every sender).
        self._view: Optional[FrozenSet[Hashable]] = None
        self._epoch = ctx.epoch
        self._gray_neighbors: Set[Hashable] = set()
        self._one_hop_heard: Set[Hashable] = set()
        self._gray_unheard = 0
        self._sent_one_hop = False
        self._sent_two_hop = False

    def on_message(self, msg: Message) -> None:
        # The hot path of every Algorithm II run: MisNode's marking
        # rules and the 1-HOP-DOMINATORS receipt are inlined here.
        kind = msg.kind
        sender = msg.sender
        if kind == MIS_DOMINATOR or kind == GRAY:
            declared = self._declared
            if sender not in declared:
                declared.add(sender)
                if self._view is None or sender in self._view:
                    self._undeclared -= 1
            if kind == GRAY:
                if sender not in self._gray_neighbors:
                    self._gray_neighbors.add(sender)
                    if sender not in self._one_hop_heard:
                        self._gray_unheard += 1
                pending = self._pending_lower
                pending.discard(sender)
                if self.color == WHITE_STATE and not pending:
                    self.declare_black()
            else:
                if self.color != BLACK_STATE:
                    self.one_hop_dom.add(sender)
                    # A 2-hop classification that arrived early is
                    # corrected: the sender is in fact one hop away.
                    self.two_hop_dom.pop(sender, None)
                self._black_neighbors.add(sender)
                if self.color == WHITE_STATE:
                    self.declare_gray(sender)
            if self.color == GRAY_STATE and not self._sent_two_hop:
                self._maybe_send_lists()
        elif kind == ONE_HOP_DOMINATORS:
            # Rules 5-6: build the 2-hop list from a gray neighbour's
            # 1-hop list.
            if sender not in self._one_hop_heard:
                self._one_hop_heard.add(sender)
                if sender in self._gray_neighbors:
                    self._gray_unheard -= 1
            two_hop = self.two_hop_dom
            if self.color == BLACK_STATE:
                node_id = self.node_id
                three_hop = self.three_hop_dom
                for dom in msg.data["doms"]:
                    if dom == node_id or dom in two_hop:
                        continue
                    two_hop[dom] = sender
                    three_hop.pop(dom, None)
            else:
                one_hop = self.one_hop_dom
                for dom in msg.data["doms"]:
                    if dom in one_hop or dom in two_hop:
                        continue
                    two_hop[dom] = sender
            if self._sent_one_hop and not self._gray_unheard and not self._sent_two_hop:
                self._maybe_send_lists()
        elif kind == TWO_HOP_DOMINATORS:
            if self.color == BLACK_STATE:
                self._on_two_hop(sender, msg.data["doms"])
        elif kind == SELECTION:
            self._on_selection(msg)
        elif kind == ADDITIONAL_DOMINATOR:
            if msg.data["x"] == self.node_id:
                self._on_additional(msg)
        elif kind == ADDITIONAL_RELAY:
            self._on_additional_relay(msg)

    # ------------------------------------------------------------------
    # 1-HOP-DOMINATORS and 2-HOP-DOMINATORS sends (rules 4 and 7)
    # ------------------------------------------------------------------
    def _maybe_send_lists(self) -> None:
        """A gray node whose live neighbors all declared sends its 1-hop
        list, then its 2-hop list once every gray neighbor's 1-hop list is in."""
        if self.color != GRAY_STATE or self._sent_two_hop:
            return
        epoch = self.ctx.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            view = self._view = self.ctx.neighbors
            self._undeclared = len(view - self._declared)
        if self._undeclared:
            return
        if not self._sent_one_hop:
            self._sent_one_hop = True
            self.ctx.broadcast(
                ONE_HOP_DOMINATORS, doms=tuple(sorted(self.one_hop_dom, key=repr))
            )
        if not self._gray_unheard:
            self._sent_two_hop = True
            self.ctx.broadcast(
                TWO_HOP_DOMINATORS,
                doms=tuple(sorted(self.two_hop_dom.items(), key=repr)),
            )

    # ------------------------------------------------------------------
    # 2-HOP-DOMINATORS receipt (rule 8)
    # ------------------------------------------------------------------
    def _on_two_hop(self, via: Hashable, doms) -> None:
        node_id = self.node_id
        two_hop = self.two_hop_dom
        three_hop = self.three_hop_dom
        rank = self.rank
        ranks = self._ranks
        for dom, hop in doms:
            if dom == node_id or dom in two_hop or dom in three_hop:
                continue
            if not rank < ranks[dom]:
                continue
            three_hop[dom] = (via, hop)
            # The paper's SELECTION message carries the full (u, v, x, w)
            # tuple; the receiver IS v, so it never reads that field.
            self.ctx.send(via, SELECTION, u=self.node_id, v=via, x=hop, w=dom)  # repro: noqa[P3]

    # ------------------------------------------------------------------
    # Additional-dominator declaration and relay (rules 9-10)
    # ------------------------------------------------------------------
    def _on_selection(self, msg: Message) -> None:
        self.is_additional = True
        self.ctx.broadcast(
            ADDITIONAL_DOMINATOR,
            v=self.node_id,
            u=msg["u"],
            x=msg["x"],
            w=msg["w"],
        )

    def _on_additional(self, msg: Message) -> None:
        """The named intermediate ``x`` relays the declaration to ``w``."""
        if msg["w"] in self.ctx.neighbors:
            self.ctx.send(
                msg["w"],
                ADDITIONAL_RELAY,
                v=msg["v"],
                u=msg["u"],
                x=msg["x"],
                w=msg["w"],
            )

    def _on_additional_relay(self, msg: Message) -> None:
        if msg["w"] != self.node_id or self.color != BLACK_STATE:
            return
        dominator = msg["u"]
        if dominator not in self.two_hop_dom:
            self.three_hop_dom.setdefault(dominator, (msg["x"], msg["v"]))

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Transport liveness hook: forget a dead peer so the "heard
        from every neighbor" barriers can still be met."""
        super().on_neighbor_down(peer)
        self.one_hop_dom.discard(peer)
        if peer in self._gray_neighbors:
            self._gray_neighbors.discard(peer)
            if peer not in self._one_hop_heard:
                self._gray_unheard -= 1
        self._maybe_send_lists()

    def result(self) -> Dict[str, object]:
        return {
            "color": self.color,
            "is_additional": self.is_additional,
            "one_hop_dom": frozenset(self.one_hop_dom),
            "two_hop_dom": dict(self.two_hop_dom),
            "three_hop_dom": dict(self.three_hop_dom),
        }


def _phase_messages(stats: SimStats) -> Dict[str, Dict[str, float]]:
    """Per-phase message counts and simulated activity windows, from
    the run's per-kind statistics."""
    out: Dict[str, Dict[str, float]] = {}
    for phase, kinds in PHASE_KINDS.items():
        messages = sum(stats.by_kind.get(kind, 0) for kind in kinds)
        firsts = [
            stats.first_send_by_kind[kind]
            for kind in kinds
            if kind in stats.first_send_by_kind
        ]
        lasts = [
            stats.last_send_by_kind[kind]
            for kind in kinds
            if kind in stats.last_send_by_kind
        ]
        out[phase] = {
            "messages": messages,
            "sim_start": min(firsts) if firsts else 0.0,
            "sim_end": max(lasts) if lasts else 0.0,
        }
    return out


def algorithm2_distributed(
    graph: Graph,
    *,
    tracer=None,
    registry=None,
    sim: Optional[SimConfig] = None,
) -> BackboneResult:
    """Run the full Algorithm II protocol to quiescence.

    ``meta`` carries each node's dominator lists (the routing state
    §4.2's clusterhead router consumes), the gray/black colors, the
    run's message statistics, and ``phase_messages`` — per-phase
    message counts with simulated-time activity windows.

    Telemetry mirrors :func:`repro.wcds.algorithm1_distributed`: the
    run and each logical phase emit spans on ``tracer`` (phases
    interleave inside the single simulation, so phase spans carry
    message counts and simulated-time windows, not wall-clock slices),
    and a ``registry`` receives per-kind and per-phase counters.
    """
    config = sim or SimConfig()
    if graph.num_nodes == 0:
        raise ValueError("Algorithm II requires a non-empty graph")
    if not is_connected(graph):
        raise ValueError("Algorithm II requires a connected graph")
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("algorithm2", n=graph.num_nodes) as run_span:
        ranking = id_ranking(graph)
        simulator = make_simulator(
            graph, lambda ctx: Algorithm2Node(ctx, ranking), config,
            registry=registry,
        )
        stats = simulator.run()
        phase_messages = _phase_messages(stats)
        for phase, split in phase_messages.items():
            with tracer.span(phase) as span:
                span.set_attr("messages", split["messages"])
                span.set_attr("sim_start", split["sim_start"])
                span.set_attr("sim_end", split["sim_end"])
            if registry is not None:
                registry.counter(
                    "protocol_phase_messages_total",
                    "Messages sent during one protocol phase",
                    algorithm="2", phase=phase,
                ).inc(split["messages"])
        if registry is not None:
            registry.counter(
                "protocol_phase_rounds_total",
                "Simulated rounds spent in one protocol phase",
                algorithm="2", phase="all",
            ).inc(stats.finish_time)
        run_span.set_attr("messages", stats.messages_sent)
        run_span.set_attr("rounds", stats.finish_time)
        results = simulator.collect_results()
        crashed = simulator.crashed
        survivors = [n for n in graph.nodes() if n not in crashed]
        undecided = [n for n in survivors if results[n]["color"] == "white"]
        if undecided:
            raise RuntimeError(f"marking did not terminate: {undecided!r}")
        mis = frozenset(n for n in survivors if results[n]["color"] == "black")
        additional = frozenset(
            n for n in survivors if results[n]["is_additional"]
        )
        # A node can be both under faults: a crashed dominator's slot
        # re-marked black after an additional-dominator declaration.
        additional -= mis
        run_span.set_attr("backbone", len(mis | additional))
    meta = {"node_state": results, "stats": stats,
            "phase_messages": phase_messages}
    if config.transport:
        meta["transport_totals"] = aggregate_transport(results)
    if crashed:
        meta["crashed"] = crashed
    return BackboneResult(
        dominators=mis | additional,
        mis_dominators=mis,
        additional_dominators=additional,
        algorithm="algorithm2",
        meta=meta,
    )


def algorithm2_centralized(graph: Graph) -> WCDSResult:
    """Centralized reference for Algorithm II.

    The MIS is identical to the distributed one (id-greedy MIS is
    latency-independent).  For additional-dominators the centralized
    twin covers exactly the pairs of MIS nodes at hop distance 3,
    choosing for each pair ``(u, w)`` with ``u < w`` the minimum-id
    first-hop neighbor of ``u`` that lies on a 3-hop path to ``w`` —
    the distributed run may pick a different (equally valid)
    intermediate depending on message arrival order.  The rule is
    :func:`repro.wcds.connectors.three_hop_relays`, and
    ``meta["pairs_covered"]`` lists ``(u, w, chosen)`` in ascending
    ``(u, w)`` order.
    """
    if graph.num_nodes == 0:
        raise ValueError("Algorithm II requires a non-empty graph")
    if not is_connected(graph):
        raise ValueError("Algorithm II requires a connected graph")
    numbering = graph.numbering()
    if not numbering.natural:
        raise TypeError(
            "Algorithm II ranks nodes by id: the ids must be mutually comparable"
        )
    mis = greedy_mis(graph)
    nodes, _, adj = numbering
    is_mis = bytearray(node in mis for node in nodes)
    leaders = [i for i, flag in enumerate(is_mis) if flag]
    pairs_covered = [
        (nodes[u], nodes[w], nodes[v])
        for u, w, v, _ in three_hop_relays(adj, mis_rows(adj, is_mis), leaders)
    ]
    additional: Set[Hashable] = {chosen for _, _, chosen in pairs_covered}
    additional -= mis  # MIS nodes are never intermediates, but be safe
    return WCDSResult(
        dominators=frozenset(mis | additional),
        mis_dominators=frozenset(mis),
        additional_dominators=frozenset(additional),
        meta={"pairs_covered": pairs_covered},
    )
