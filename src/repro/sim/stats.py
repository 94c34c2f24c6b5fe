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
from typing import Any, Dict, Hashable, List

from repro.sim.messages import COLLECTIONS, SCALARS, Message


@dataclass
class SimStats:
    """Counters accumulated over one simulation run.

    A simulator tallies each send with :meth:`record_send` and folds the
    tallies into the send fields when ``run`` returns, so those fields
    are current between ``run`` calls, not inside a handler.
    """

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

    def __post_init__(self) -> None:
        # The sends of the run in progress, tallied in plain dicts (a
        # dict get/set costs a third of a Counter's): per kind a
        # ``[count, payload entries, first time, last time]`` row, and
        # per sender a count.  fold_sends adds them to the fields.
        self._sends_by_kind: Dict[str, List[Any]] = {}
        self._sends_by_node: Dict[Hashable, int] = {}

    def record_message(self, message: Message, time: float = 0.0) -> None:
        """Account one radio transmission of ``message`` at ``time``.

        The message *count* is the paper's complexity measure; the
        payload entry count is the communication-volume measure that
        separates O(1)-payload protocols (Algorithm II's bounded
        dominator lists) from O(Δ)-payload ones (Wu-Li's HELLO neighbor
        lists).  The first/last transmission times per kind bound each
        message kind's activity window in simulated time (the phase
        telemetry of interleaved protocols like Algorithm II reads them).

        Every field is current when this returns.  The simulators call
        :meth:`record_send` per send and :meth:`fold_sends` once when
        ``run`` returns.
        """
        self.record_send(message, time)
        self.fold_sends()

    def record_send(self, message: Message, time: float = 0.0) -> None:
        """Tally a transmission as :meth:`record_message` accounts it,
        leaving the send fields to :meth:`fold_sends`.

        The payload size is :meth:`Message.payload_size` inlined, and a
        value whose exact type is in :data:`SCALARS` skips the
        ``isinstance`` test (a subclass, such as an ``IntEnum``, takes
        it).
        """
        kind = message.kind
        data = message.data
        size = 1
        if data:
            size += len(data)
            for value in data.values():
                if type(value) not in SCALARS and isinstance(value, COLLECTIONS):
                    size += (len(value) or 1) - 1
        by_node = self._sends_by_node
        sender = message.sender
        by_node[sender] = by_node.get(sender, 0) + 1
        row = self._sends_by_kind.get(kind)
        if row is None:
            self._sends_by_kind[kind] = [1, size, time, time]
        else:
            row[0] += 1
            row[1] += size
            row[3] = time

    def fold_sends(self) -> None:
        """Add the sends tallied by :meth:`record_send` to the fields.

        A key keeps the place its first send gave it, so every field
        matches a send-by-send tally in values and in key order.
        """
        by_kind = self.by_kind
        payload_by_kind = self.payload_by_kind
        # First-send order is the order the fields must keep.
        for kind, (count, size, first, last) in self._sends_by_kind.items():  # repro: noqa[D1]
            self.messages_sent += count
            self.payload_entries += size
            by_kind[kind] = by_kind.get(kind, 0) + count
            payload_by_kind[kind] = payload_by_kind.get(kind, 0) + size
            self.first_send_by_kind.setdefault(kind, first)
            self.last_send_by_kind[kind] = last
        self._sends_by_kind.clear()
        by_node = self.by_node
        for sender, count in self._sends_by_node.items():
            by_node[sender] = by_node.get(sender, 0) + count
        self._sends_by_node.clear()

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
