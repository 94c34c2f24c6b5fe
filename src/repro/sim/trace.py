"""Protocol execution traces.

A :class:`TraceRecorder` attached to a :class:`~repro.sim.engine.Simulator`
logs every transmission and delivery with its timestamp, giving
post-mortem visibility into a protocol run: who sent what when, per-kind
timelines, and a human-readable transcript — the tool you want when a
distributed state machine wedges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.sim.messages import Message

SEND = "send"
DELIVER = "deliver"
DROP = "drop"
FAULT = "fault"


@dataclass(frozen=True)
class TraceEvent:
    """One logged radio event."""

    time: float
    action: str  # send | deliver | drop
    node: Hashable  # the sender (send) or receiver (deliver/drop)
    kind: str
    sender: Hashable
    dest: Optional[Hashable]  # None = broadcast

    def format(self) -> str:
        """One transcript line."""
        target = "*" if self.dest is None else str(self.dest)
        if self.action == FAULT:
            return f"[{self.time:8.2f}] !! FAULT {self.kind}"
        if self.action == SEND:
            return f"[{self.time:8.2f}] {self.sender} -> {target}  {self.kind}"
        arrow = "==" if self.action == DELIVER else "xx"
        return f"[{self.time:8.2f}] {self.sender} {arrow}> {self.node}  {self.kind}"


class TraceRecorder:
    """Accumulates :class:`TraceEvent` rows during a simulation run.

    Past ``max_events`` the recorder stops storing rows but keeps
    counting: ``truncated`` flips to ``True`` and ``dropped_events``
    says how much of the run the transcript is missing — a truncated
    trace announces itself instead of silently looking complete.

    With a ``registry`` (:class:`repro.obs.MetricsRegistry`) attached,
    every event is also counted into ``trace_events_total`` by action
    and message kind — counts that survive truncation.
    """

    def __init__(self, max_events: int = 1_000_000, *, registry=None) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.truncated = False
        self.dropped_events = 0
        self.registry = registry

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------
    def on_send(self, time: float, message: Message) -> None:
        self._append(
            TraceEvent(time, SEND, message.sender, message.kind, message.sender, message.dest)
        )

    def on_deliver(self, time: float, receiver: Hashable, message: Message) -> None:
        self._append(
            TraceEvent(time, DELIVER, receiver, message.kind, message.sender, message.dest)
        )

    def on_drop(self, time: float, receiver: Hashable, message: Message) -> None:
        self._append(
            TraceEvent(time, DROP, receiver, message.kind, message.sender, message.dest)
        )

    def on_fault(self, time: float, state: Dict[str, object]) -> None:
        """Log a fault-plan transition (dead set / loss / partition change)."""
        label = (
            f"dead={len(state.get('dead', ()))} "  # type: ignore[arg-type]
            f"loss={state.get('loss', 0.0)} "
            f"partitions={state.get('partitions', 0)}"
        )
        self._append(TraceEvent(time, FAULT, None, label, None, None))

    def _append(self, event: TraceEvent) -> None:
        if self.registry is not None:
            self.registry.counter(
                "trace_events_total", "Trace events by action and kind",
                action=event.action, kind=event.kind,
            ).inc()
        if len(self.events) >= self.max_events:
            self.truncated = True
            self.dropped_events += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def sends(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """All transmissions, optionally filtered by message kind."""
        return [
            e
            for e in self.events
            if e.action == SEND and (kind is None or e.kind == kind)
        ]

    def messages_of(self, node: Hashable) -> List[TraceEvent]:
        """Every event a node participated in (as sender or receiver)."""
        return [e for e in self.events if e.node == node or e.sender == node]

    def first_send_time(self, kind: str) -> Optional[float]:
        """When the first message of ``kind`` was transmitted."""
        sends = self.sends(kind)
        return sends[0].time if sends else None

    def summary(self) -> Dict[str, object]:
        """Event totals by action, plus the truncation signal."""
        counts = {SEND: 0, DELIVER: 0, DROP: 0, FAULT: 0}
        for event in self.events:
            counts[event.action] += 1
        return {
            "events": len(self.events),
            "sends": counts[SEND],
            "delivers": counts[DELIVER],
            "drops": counts[DROP],
            "faults": counts[FAULT],
            "truncated": self.truncated,
            "dropped_events": self.dropped_events,
        }

    def transcript(self, limit: Optional[int] = None) -> str:
        """The run as readable lines, optionally truncated."""
        rows = self.events if limit is None else self.events[:limit]
        lines = [event.format() for event in rows]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        if self.truncated:
            lines.append(
                f"!!! trace truncated: {self.dropped_events} events dropped "
                f"past max_events={self.max_events}"
            )
        return "\n".join(lines)
