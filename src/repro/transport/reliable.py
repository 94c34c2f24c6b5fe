"""Reliable delivery over the lossy radio: ack/retransmit + liveness.

The simulator's radio model delivers a broadcast to every neighbor —
unless loss, a partition, or a crash eats it.  The paper's algorithms
assume ideal delivery, so under faults they deadlock (a predicate waits
forever for a message that was dropped) or diverge.  This module wraps
any :class:`~repro.sim.node.ProtocolNode` in a reliable transport:

* every payload message carries a sequence number; receivers suppress
  duplicates and acknowledge with delayed, batched cumulative ACKs;
* the sender retransmits (unicast, exponential backoff) to each
  neighbor that has not acknowledged, until it either succeeds or
  exhausts its retries and declares the neighbor dead;
* periodic heartbeats double as liveness beacons — a neighbor silent
  past the liveness timeout is *suspected* and removed from the node's
  ``neighbors`` view, and the wrapped protocol's ``on_neighbor_down``
  hook fires so waiting predicates can release it;
* a node that has been idle for a few beats announces ``FIN`` (done
  sending) so its peers stop expecting heartbeats; once all peers are
  FIN-or-suspected the transport goes fully quiet, which is what lets
  the discrete-event simulation reach quiescence.

Termination does not depend on the FIN broadcast surviving loss: a
peer that has been silent past the liveness timeout is *pinged* every
beat for one more timeout window — a live but quiescent transport
answers pings (with its FIN status) even after it stopped ticking, so
the prober learns the truth; only a peer that answers nothing for the
whole window (crashed, or unreachable behind a partition) is suspected.
A spurious suspicion is still possible when every ping exchange in the
window is lost; the protocols tolerate it and the chaos harness
restarts the epoch when it corrupts an invariant.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.graphs.graph import canonical_order
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.transport.config import TransportConfig

ACK_KIND = "TRANSPORT-ACK"
HEARTBEAT_KIND = "TRANSPORT-HB"
CONTROL_KINDS = frozenset({ACK_KIND, HEARTBEAT_KIND})
SEQ_KEY = "__seq"

_ACTIVE = "active"
_PASSIVE = "passive"
_STOPPED = "stopped"

_TICK_TAG = "__tx:tick"
_ACK_TAG = "__tx:ack"
_RTX_PREFIX = "__tx:rtx:"


class _Outbound:
    """One in-flight payload awaiting acknowledgements."""

    __slots__ = ("kind", "data", "waiting", "attempts", "delay")

    def __init__(
        self, kind: str, data: Dict[str, Any], waiting: Set[Hashable], delay: float
    ) -> None:
        self.kind = kind
        self.data = data
        self.waiting = waiting
        self.attempts = 0
        self.delay = delay


class ReliableTransport:
    """Per-node reliable-delivery state machine.

    Owned by a :class:`TransportNode`; talks to the radio through the
    raw :class:`~repro.sim.node.NodeContext` and to the wrapped
    protocol through the wrapper's notification callbacks.
    """

    def __init__(self, ctx: NodeContext, config: TransportConfig) -> None:
        self.ctx = ctx
        self.config = config
        self.known: FrozenSet[Hashable] = frozenset(ctx.neighbors)
        self.suspected: Set[Hashable] = set()
        self.view_changes = 0  # bumped on every change to ``suspected``
        self._fin_peers: Set[Hashable] = set()
        self._last_heard: Dict[Hashable, float] = {}
        #: Silent peers currently being probed -> time of first ping.
        self._pinged: Dict[Hashable, float] = {}
        self._next_seq = 0
        self._pending: Dict[int, _Outbound] = {}
        self._seen: Dict[Hashable, Set[int]] = {}
        self._ack_queue: Dict[Hashable, Set[int]] = {}
        self._ack_timer_set = False
        self._tick_armed = False
        self._state = _ACTIVE
        self._quiet_beats = 0
        self._sent_since_tick = False
        self._traffic_since_tick = False
        self._on_down: Optional[Callable[[Hashable], None]] = None
        self._on_up: Optional[Callable[[Hashable], None]] = None
        # Telemetry (surfaced through TransportNode.result()).
        self.payload_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.heartbeats_sent = 0
        self.duplicates_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        on_down: Callable[[Hashable], None],
        on_up: Callable[[Hashable], None],
    ) -> None:
        self._on_down = on_down
        self._on_up = on_up

    def start(self) -> None:
        for peer in self.known:
            self._last_heard[peer] = 0.0
        self._arm_tick()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def live_neighbors(self) -> FrozenSet[Hashable]:
        """Neighbors believed alive: known at start, minus suspected."""
        if not self.suspected:
            return self.known
        return self.known - self.suspected

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_payload(
        self, kind: str, data: Dict[str, Any], dest: Optional[Hashable] = None
    ) -> None:
        if kind in CONTROL_KINDS:
            raise ValueError(f"message kind {kind!r} is reserved by the transport")
        if dest is not None and dest not in self.live_neighbors:
            # The protocol addressed a peer the transport already
            # declared dead; delivering is impossible, waiting is
            # pointless.
            return
        seq = self._next_seq
        self._next_seq += 1
        payload = dict(data)
        payload[SEQ_KEY] = seq
        audience = {dest} if dest is not None else set(self.live_neighbors)
        self.payload_sent += 1
        self._sent_since_tick = True
        self._traffic_since_tick = True
        self._wake()
        if dest is not None:
            self.ctx.send(dest, kind, **payload)
        else:
            self.ctx.broadcast(kind, **payload)
        if audience:
            self._pending[seq] = _Outbound(
                kind, payload, audience, self.config.ack_timeout
            )
            self.ctx.set_timer(self.config.ack_timeout, f"{_RTX_PREFIX}{seq}")

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> Optional[Message]:
        """Process an incoming message.

        Returns the message when the wrapped protocol should see it,
        ``None`` for transport-internal traffic and duplicates.
        """
        peer = msg.sender
        self._last_heard[peer] = self.ctx.now
        self._pinged.pop(peer, None)
        if peer in self.suspected:
            self.suspected.discard(peer)
            self.view_changes += 1
            if self._on_up is not None:
                self._on_up(peer)
        if msg.kind == ACK_KIND:
            for seq in msg.data.get("seqs", ()):
                self._resolve(peer, seq)
            return None
        if msg.kind == HEARTBEAT_KIND:
            if msg.data.get("fin"):
                self._fin_peers.add(peer)
            else:
                self._fin_peers.discard(peer)
            if msg.data.get("ping"):
                # Liveness probe: answer with our FIN status.  This
                # works even after the transport stopped ticking — the
                # whole point is distinguishing "quiet but alive" from
                # "dead".
                self.heartbeats_sent += 1
                self.ctx.send(
                    peer, HEARTBEAT_KIND, fin=self._state != _ACTIVE
                )
            return None
        # Payload: a peer that talks is not FIN anymore.
        self._fin_peers.discard(peer)
        seq = msg.data.get(SEQ_KEY)
        if seq is not None:
            self._ack_queue.setdefault(peer, set()).add(seq)
            if not self._ack_timer_set:
                self._ack_timer_set = True
                self.ctx.set_timer(self.config.ack_delay, _ACK_TAG)
            seen = self._seen.setdefault(peer, set())
            if seq in seen:
                self.duplicates_dropped += 1
                return None
            seen.add(seq)
        self._traffic_since_tick = True
        return msg

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def on_timer(self, tag: str) -> None:
        if tag == _TICK_TAG:
            self._on_tick()
        elif tag == _ACK_TAG:
            self._flush_acks()
        elif tag.startswith(_RTX_PREFIX):
            self._on_retransmit_timer(int(tag[len(_RTX_PREFIX):]))

    def _flush_acks(self) -> None:
        self._ack_timer_set = False
        for peer in canonical_order(self._ack_queue):
            seqs = self._ack_queue[peer]
            if peer in self.ctx.neighbors or peer in self.known:
                self.acks_sent += 1
                self.ctx.send(peer, ACK_KIND, seqs=tuple(sorted(seqs)))
        self._ack_queue.clear()

    def _on_retransmit_timer(self, seq: int) -> None:
        out = self._pending.get(seq)
        if out is None:
            return
        out.waiting -= self.suspected
        if not out.waiting:
            del self._pending[seq]
            return
        out.attempts += 1
        if out.attempts > self.config.max_retries:
            del self._pending[seq]
            for peer in canonical_order(out.waiting):
                self._suspect(peer)
            return
        for peer in canonical_order(out.waiting):
            self.retransmissions += 1
            self._sent_since_tick = True
            self.ctx.send(peer, out.kind, **out.data)
        out.delay = min(out.delay * self.config.backoff, self.config.max_backoff)
        self.ctx.set_timer(out.delay, f"{_RTX_PREFIX}{seq}")

    def _on_tick(self) -> None:
        self._tick_armed = False
        if self._state == _STOPPED:
            return
        now = self.ctx.now
        # Liveness sweep: a peer that neither talked nor FIN'd recently
        # is pinged every beat for one more timeout window before being
        # suspected (see the module docstring).
        for peer in canonical_order(
            self.known - self.suspected - self._fin_peers
        ):
            if now - self._last_heard.get(peer, 0.0) > self.config.liveness_timeout:
                pinged_at = self._pinged.get(peer)
                window = (
                    self.config.ping_window_factor * self.config.liveness_timeout
                )
                if pinged_at is not None and now - pinged_at > window:
                    self._suspect(peer)
                    continue
                if pinged_at is None:
                    self._pinged[peer] = now
                self.heartbeats_sent += 1
                self.ctx.send(
                    peer, HEARTBEAT_KIND, fin=self._state != _ACTIVE,
                    ping=True,
                )
        if self._state == _ACTIVE:
            if self._traffic_since_tick or self._pending:
                self._quiet_beats = 0
                if not self._sent_since_tick:
                    # Nothing we sent proved liveness this beat.
                    self.heartbeats_sent += 1
                    self.ctx.broadcast(HEARTBEAT_KIND, fin=False)
            else:
                self._quiet_beats += 1
                if self._quiet_beats >= self.config.idle_beats:
                    # Done sending: announce FIN and fall back to
                    # passive monitoring of the peers still unresolved.
                    self.heartbeats_sent += 1
                    self.ctx.broadcast(HEARTBEAT_KIND, fin=True)
                    self._state = _PASSIVE
                else:
                    self.heartbeats_sent += 1
                    self.ctx.broadcast(HEARTBEAT_KIND, fin=False)
        if self._state == _PASSIVE:
            unresolved = self.known - self.suspected - self._fin_peers
            if not unresolved and not self._pending:
                self._state = _STOPPED
        self._sent_since_tick = False
        self._traffic_since_tick = False
        if self._state != _STOPPED:
            self._arm_tick()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arm_tick(self) -> None:
        if not self._tick_armed:
            self._tick_armed = True
            self.ctx.set_timer(self.config.heartbeat_interval, _TICK_TAG)

    def _wake(self) -> None:
        """Payload activity pulls the transport back to ACTIVE."""
        if self._state != _ACTIVE:
            self._state = _ACTIVE
            self._quiet_beats = 0
        self._arm_tick()

    def _resolve(self, peer: Hashable, seq: int) -> None:
        out = self._pending.get(seq)
        if out is None:
            return
        out.waiting.discard(peer)
        if not out.waiting:
            del self._pending[seq]

    def _suspect(self, peer: Hashable) -> None:
        if peer in self.suspected:
            return
        self.suspected.add(peer)
        self.view_changes += 1
        self._pinged.pop(peer, None)
        for seq in list(self._pending):
            out = self._pending[seq]
            out.waiting.discard(peer)
            if not out.waiting:
                del self._pending[seq]
        if self._on_down is not None:
            self._on_down(peer)

    def summary(self) -> Dict[str, Any]:
        return {
            "payload_sent": self.payload_sent,
            "retransmissions": self.retransmissions,
            "acks_sent": self.acks_sent,
            "heartbeats_sent": self.heartbeats_sent,
            "duplicates_dropped": self.duplicates_dropped,
            "suspected": tuple(canonical_order(self.suspected)),
        }


class TransportContext:
    """The :class:`~repro.sim.node.NodeContext` surface, rerouted.

    Wrapped protocols see this instead of the raw context: sends go
    through the reliable transport, and ``neighbors`` is the liveness
    view (known peers minus suspected-dead) rather than the simulator's
    omniscient one.
    """

    def __init__(self, ctx: NodeContext, transport: ReliableTransport) -> None:
        self._ctx = ctx
        self._transport = transport
        self.node_id = ctx.node_id

    @property
    def neighbors(self) -> FrozenSet[Hashable]:
        return self._transport.live_neighbors

    @property
    def audience(self) -> Tuple[Hashable, ...]:
        return self._ctx.audience

    @property
    def epoch(self) -> int:
        return self._ctx.epoch + self._transport.view_changes

    @property
    def now(self) -> float:
        return self._ctx.now

    def broadcast(self, kind: str, **data: Any) -> None:
        self._transport.send_payload(kind, data)

    def send(self, dest: Hashable, kind: str, **data: Any) -> None:
        self._transport.send_payload(kind, data, dest=dest)

    def set_timer(self, delay: float, tag: str = "timer") -> None:
        if tag.startswith("__tx:"):
            raise ValueError("timer tags starting with '__tx:' are reserved")
        self._ctx.set_timer(delay, tag)


class TransportNode(ProtocolNode):
    """Wrapper node: reliable transport below, any protocol above."""

    def __init__(
        self,
        ctx: NodeContext,
        inner_factory: Callable[[Any], ProtocolNode],
        config: TransportConfig,
    ) -> None:
        super().__init__(ctx)
        self.transport = ReliableTransport(ctx, config)
        self.inner = inner_factory(TransportContext(ctx, self.transport))
        self.transport.bind(self.inner.on_neighbor_down, self.inner.on_neighbor_up)

    def on_start(self) -> None:
        self.transport.start()
        self.inner.on_start()

    def on_message(self, msg: Message) -> None:
        delivered = self.transport.handle(msg)
        if delivered is not None:
            self.inner.on_message(delivered)

    def on_timer(self, tag: str) -> None:
        if tag.startswith("__tx:"):
            self.transport.on_timer(tag)
        else:
            self.inner.on_timer(tag)

    def result(self) -> Dict[str, Any]:
        out = dict(self.inner.result())
        out["transport"] = self.transport.summary()
        return out


def aggregate_transport(results: Dict[Hashable, Dict[str, Any]]) -> Dict[str, int]:
    """Sum per-node transport summaries out of ``collect_results()``.

    Returns zeros when the run did not use the transport.
    """
    totals = {
        "payload_sent": 0,
        "retransmissions": 0,
        "acks_sent": 0,
        "heartbeats_sent": 0,
        "duplicates_dropped": 0,
        "suspected_events": 0,
    }
    for res in results.values():
        summary = res.get("transport")
        if not summary:
            continue
        for key in (
            "payload_sent",
            "retransmissions",
            "acks_sent",
            "heartbeats_sent",
            "duplicates_dropped",
        ):
            totals[key] += int(summary.get(key, 0))
        totals["suspected_events"] += len(summary.get("suspected", ()))
    return totals


def with_transport(
    factory: Callable[[Any], ProtocolNode], config: Optional[TransportConfig] = None
) -> Callable[[NodeContext], TransportNode]:
    """Wrap a node factory so every node runs over the transport."""
    cfg = config if config is not None else TransportConfig()

    def wrapped(ctx: NodeContext) -> TransportNode:
        return TransportNode(ctx, factory, cfg)

    return wrapped
