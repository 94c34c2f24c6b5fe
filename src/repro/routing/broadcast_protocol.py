"""Backbone broadcast as an actual message protocol.

``repro.routing.broadcast`` computes broadcast outcomes analytically
(who would transmit, who would hear).  This module runs the same two
schemes on the simulator, which adds the dimensions the analytic model
cannot see: delivery *latency* under the radio model, behavior under
randomized link delays, and per-node transmission counts from the real
event order.

Forwarding rules per scheme, applied on first receipt of the packet:

* ``flood``    — every node retransmits once;
* ``backbone`` — the source and WCDS dominators retransmit; a gray node
  retransmits only while some dominator neighbor is not yet known to
  have the packet (gateway rule, same as the analytic model — here the
  knowledge is what the node has *overheard*, so an occasional extra
  gateway transmission is possible; coverage never suffers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats
from repro.wcds.base import WCDSResult

DATA = "DATA"


@dataclass(frozen=True)
class ProtocolBroadcastOutcome:
    """Measured outcome of a protocol-level broadcast."""

    transmissions: int
    covered: int
    total: int
    last_delivery_time: float

    @property
    def full_coverage(self) -> bool:
        """Every node received the packet."""
        return self.covered == self.total


class BroadcastNode(ProtocolNode):
    """One node of the dissemination protocol."""

    def __init__(
        self,
        ctx: NodeContext,
        source: Hashable,
        forwarders: Optional[FrozenSet[Hashable]],
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.forwarders = forwarders  # None = flood (everyone forwards)
        self.received_at: Optional[float] = None
        self.transmitted = False
        self._neighbors_with_packet: Set[Hashable] = set()

    def on_start(self) -> None:
        if self.node_id == self.source:
            self.received_at = self.ctx.now
            self._transmit()

    def on_message(self, msg: Message) -> None:
        if msg.kind != DATA:
            return
        self._neighbors_with_packet.add(msg.sender)
        if self.received_at is None:
            self.received_at = self.ctx.now
            if self._should_forward():
                self._transmit()

    def _should_forward(self) -> bool:
        if self.forwarders is None or self.node_id in self.forwarders:
            return True
        # Gateway rule: forward if a dominator neighbor has not been
        # overheard with the packet yet.
        return any(
            nbr in self.forwarders and nbr not in self._neighbors_with_packet
            for nbr in self.ctx.neighbors
        )

    def _transmit(self) -> None:
        if not self.transmitted:
            self.transmitted = True
            self.ctx.broadcast(DATA)

    def result(self) -> Dict[str, object]:
        return {
            "received_at": self.received_at,
            "transmitted": self.transmitted,
        }


def _run(
    graph: Graph,
    source: Hashable,
    forwarders: Optional[FrozenSet[Hashable]],
    config: SimConfig,
) -> Tuple[ProtocolBroadcastOutcome, SimStats]:
    simulator = make_simulator(
        graph,
        lambda ctx: BroadcastNode(ctx, source, forwarders),
        config,
    )
    stats = simulator.run()
    results = simulator.collect_results()
    received = [res["received_at"] for res in results.values() if res["received_at"] is not None]
    outcome = ProtocolBroadcastOutcome(
        transmissions=sum(1 for res in results.values() if res["transmitted"]),
        covered=len(received),
        total=graph.num_nodes,
        last_delivery_time=max(received) if received else 0.0,
    )
    return outcome, stats


def flood_protocol(
    graph: Graph,
    source: Hashable,
    *,
    sim: Optional[SimConfig] = None,
) -> Tuple[ProtocolBroadcastOutcome, SimStats]:
    """Run blind flooding on the simulator."""
    return _run(graph, source, None, sim or SimConfig())


def backbone_protocol(
    graph: Graph,
    result: WCDSResult,
    source: Hashable,
    *,
    sim: Optional[SimConfig] = None,
) -> Tuple[ProtocolBroadcastOutcome, SimStats]:
    """Run WCDS-backbone dissemination on the simulator."""
    return _run(graph, source, frozenset(result.dominators), sim or SimConfig())
