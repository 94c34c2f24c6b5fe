"""Distributed MIS marking protocol.

This is the color-marking core shared by both of the paper's WCDS
algorithms: all nodes start white; a node marks itself black when it
learns no lower-ranked neighbor will (i.e., it has received a GRAY
declaration from every lower-ranked neighbor, or has none); a white node
hearing a BLACK declaration marks itself gray.  Each node transmits
exactly one declaration, so the phase costs exactly n messages.

The rank of every node and of its neighbors must be known locally
before the phase starts: for Algorithm II the rank is the node id
(known by assumption), for Algorithm I it is ``(level, id)`` learned in
the level calculation phase.  The protocol is parameterized over a rank
table to cover both.

Correctness under asynchrony: a node's decision depends only on its
lower-ranked neighbors' declarations, so by induction on rank order the
outcome is exactly the centralized greedy MIS for that ranking, whatever
the message delays — which the property tests check against
:func:`repro.mis.centralized.greedy_mis` under randomized latency.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Mapping, Optional, Set

from repro.graphs.graph import Graph
from repro.mis.ranking import Rank, id_ranking, validate_ranking
from repro.sim.config import SimConfig, merge_entry_args
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode

BLACK = "BLACK"
GRAY = "GRAY"

WHITE_STATE = "white"
GRAY_STATE = "gray"
BLACK_STATE = "black"


class MisNode(ProtocolNode):
    """One node of the distributed marking protocol.

    Subclasses (Algorithm II's full node) override :meth:`declare_black`
    / :meth:`declare_gray` to piggyback extra state, and may use
    different message kind names via the class attributes.
    """

    black_kind = BLACK
    gray_kind = GRAY

    def __init__(self, ctx: NodeContext, ranks: Mapping[Hashable, Rank]) -> None:
        super().__init__(ctx)
        self._ranks = ranks
        self.color = WHITE_STATE
        # Under faults a node can be absent from the rank table (it
        # crashed before the ranking phase finished); such a node never
        # starts, and live nodes skip unranked neighbors.  The simulator
        # builds every node before any crash: the audience is the live view.
        self.rank = rank = ranks.get(self.node_id)
        self._pending_lower: Set[Hashable] = (
            set()
            if rank is None
            else {nbr for nbr in ctx.audience if nbr in ranks and ranks[nbr] < rank}
        )
        self._black_neighbors: Set[Hashable] = set()

    # ------------------------------------------------------------------
    # Protocol rules
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if not self._pending_lower:
            self.declare_black()

    def on_message(self, msg: Message) -> None:
        if msg.kind == self.black_kind:
            self._on_black(msg.sender)
        elif msg.kind == self.gray_kind:
            self._on_gray(msg.sender)

    def _on_black(self, sender: Hashable) -> None:
        self._black_neighbors.add(sender)
        if self.color == WHITE_STATE:
            self.declare_gray(sender)

    def _on_gray(self, sender: Hashable) -> None:
        self._pending_lower.discard(sender)
        if self.color == WHITE_STATE and not self._pending_lower:
            self.declare_black()

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Transport liveness hook: release predicates waiting on
        ``peer`` and repair domination if a dominator died.

        A gray node whose last known dominator crashed rejoins the
        marking as white; a white node no longer waits for a dead
        lower-ranked neighbor's declaration.  This can produce two
        adjacent black nodes (the MIS property is sacrificed), but the
        set stays dominating — which is what WCDS validity needs.
        """
        self._pending_lower.discard(peer)
        self._black_neighbors.discard(peer)
        if self.color == GRAY_STATE and not self._black_neighbors:
            self.color = WHITE_STATE
        if self.color == WHITE_STATE and not self._pending_lower:
            self.declare_black()

    # ------------------------------------------------------------------
    # Declarations (overridable hooks)
    # ------------------------------------------------------------------
    def declare_black(self) -> None:
        """Mark black and announce; called at most once."""
        self.color = BLACK_STATE
        self.ctx.broadcast(self.black_kind)

    def declare_gray(self, dominator: Hashable) -> None:
        """Mark gray (dominated by ``dominator``) and announce."""
        self.color = GRAY_STATE
        self.ctx.broadcast(self.gray_kind)

    def result(self) -> Dict[str, object]:
        return {"color": self.color}


def run_mis(
    graph: Graph,
    ranking: Optional[Mapping[Hashable, Rank]] = None,
    *,
    seed: Optional[int] = None,
    tracer=None,
    registry=None,
    transport: Any = None,
    sim: Optional[SimConfig] = None,
) -> "Any":
    """Run the marking protocol (unified backbone signature).

    Defaults to id ranking (Algorithm II's MIS phase).  On a fault-free
    run the result equals ``greedy_mis(graph, ranking)``.  The returned
    :class:`~repro.wcds.base.BackboneResult` holds the MIS as both the
    dominator set and the MIS-dominator set (a maximal independent set
    is dominating, though not necessarily weakly connected); ``meta``
    carries the colors and the run's :class:`SimStats`.
    """
    from repro.wcds.base import BackboneResult

    config = merge_entry_args(sim, seed=seed, transport=transport, where="run_mis")
    if ranking is None:
        ranking = id_ranking(graph)
    if not config.faulty:
        validate_ranking(graph, ranking)
    simulator = make_simulator(
        graph, lambda ctx: MisNode(ctx, ranking), config,
        tracer=tracer, registry=registry,
    )
    stats = simulator.run()
    results = simulator.collect_results()
    crashed = simulator.crashed
    survivors = [n for n in graph.nodes() if n not in crashed]
    undecided = [n for n in survivors if results[n]["color"] == WHITE_STATE]
    if undecided:
        raise RuntimeError(f"marking did not terminate: white={undecided!r}")
    mis = frozenset(
        n for n in survivors if results[n]["color"] == BLACK_STATE
    )
    colors = {n: results[n]["color"] for n in results}
    meta: Dict[str, Any] = {"colors": colors, "stats": stats, "crashed": crashed}
    if config.transport_config is not None:
        from repro.transport.reliable import aggregate_transport

        meta["transport_totals"] = aggregate_transport(results)
    return BackboneResult(
        dominators=mis,
        mis_dominators=mis,
        algorithm="mis",
        meta=meta,
    )
