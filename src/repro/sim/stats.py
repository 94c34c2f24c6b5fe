"""Run statistics: message, transmission, and time accounting.

The paper's complexity theorems count *messages* (radio transmissions:
one local broadcast = one message regardless of how many neighbors hear
it) and *time* (rounds in the synchronous model).  :class:`SimStats`
tracks both, plus per-kind and per-node breakdowns used by the
complexity benchmarks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.sim.messages import COLLECTIONS, Message


@dataclass
class SimStats:
    """Counters accumulated over one simulation run."""

    messages_sent: int = 0
    deliveries: int = 0
    dropped: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_node: Counter = field(default_factory=Counter)
    payload_entries: int = 0
    payload_by_kind: Counter = field(default_factory=Counter)
    finish_time: float = 0.0
    events_processed: int = 0
    first_send_by_kind: Dict[str, float] = field(default_factory=dict)
    last_send_by_kind: Dict[str, float] = field(default_factory=dict)
    partition_blocked: int = 0
    fault_transitions: int = 0

    def record_message(self, message: Message, time: float = 0.0) -> None:
        """Account one radio transmission of ``message`` at ``time``.

        The message *count* is the paper's complexity measure; the
        payload entry count is the communication-volume measure that
        separates O(1)-payload protocols (Algorithm II's bounded
        dominator lists) from O(Δ)-payload ones (Wu-Li's HELLO neighbor
        lists).  The first/last transmission times per kind bound each
        message kind's activity window in simulated time (the phase
        telemetry of interleaved protocols like Algorithm II reads them).
        """
        # Every send lands here: the payload size is
        # Message.payload_size inlined, and the tallies use the plain
        # dict ``get`` form, which costs half a Counter ``+=``.
        kind = message.kind
        data = message.data
        size = 1
        if data:
            size += len(data)
            for value in data.values():
                if isinstance(value, COLLECTIONS):
                    size += (len(value) or 1) - 1
        self.messages_sent += 1
        by_kind = self.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        by_node = self.by_node
        sender = message.sender
        by_node[sender] = by_node.get(sender, 0) + 1
        self.payload_entries += size
        payload_by_kind = self.payload_by_kind
        payload_by_kind[kind] = payload_by_kind.get(kind, 0) + size
        if kind not in self.first_send_by_kind:
            self.first_send_by_kind[kind] = time
        self.last_send_by_kind[kind] = time

    def record_delivery(self) -> None:
        """Account one successful per-receiver delivery."""
        self.deliveries += 1

    def record_delivery_batch(self, count: int) -> None:
        """Account ``count`` successful deliveries in one step.

        The batched engine tallies a whole fan-out (or a whole run's
        accumulated deliveries) at once instead of ``count`` separate
        increments; the resulting totals are identical.
        """
        self.deliveries += count

    def record_drop(self) -> None:
        """Account one lost per-receiver delivery."""
        self.dropped += 1

    def messages_per_node(self) -> float:
        """Average transmissions per participating node."""
        if not self.by_node:
            return 0.0
        return self.messages_sent / len(self.by_node)

    def max_messages_per_node(self) -> int:
        """Worst-case transmissions by a single node.

        Theorem 12's O(n) message bound follows from this being O(1)
        for Algorithm II.
        """
        if not self.by_node:
            return 0
        return max(self.by_node.values())

    def summary(self) -> Dict[str, float]:
        """Flat summary dict for table printing."""
        return {
            "messages": self.messages_sent,
            "deliveries": self.deliveries,
            "dropped": self.dropped,
            "finish_time": self.finish_time,
            "max_per_node": self.max_messages_per_node(),
        }
