"""The flight recorder: a bounded ring of recent telemetry events.

A :class:`FlightRecorder` keeps the last ``capacity`` noteworthy events
of one process — completed spans, metric deltas, fault transitions,
dispatches, deadline misses — in a ring buffer, and can dump them as a
JSON artifact for post-mortem when something goes wrong.  Recording is
O(1) and allocation-light (one small dict per event), so the recorder
is cheap enough to leave armed in production-shaped runs.

Dumps are *triggered*: ``record(kind, ...)`` checks the kind against
the recorder's ``dump_on`` set and, when a ``dump_path`` is configured,
writes the artifact immediately.  The canonical triggers are the three
the serving stack emits — ``"worker_death"`` (a serve-pool worker
stopped answering), ``"deadline_miss"`` (a service request blew its
deadline), and ``"fault_transition"`` (the simulator applied a fault
plan state change).

One recorder per process can be installed globally
(:func:`set_flight_recorder`); instrumented code calls
:func:`flight_record`, which is a no-op until a recorder is installed,
so the un-armed path costs one global read and a ``None`` check.

Artifact format (``dump()`` / the written JSON)::

    {
      "process":        "main",
      "reason":         "worker_death",
      "dumped_at":      1754650000.123,
      "capacity":       512,
      "recorded_total": 1839,
      "dropped":        1327,
      "entries": [ {"ts": ..., "kind": "span", ...}, ... ]
    }
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, List, Optional

#: Event kinds that trigger an immediate dump by default.
DEFAULT_DUMP_ON = frozenset(
    {"worker_death", "deadline_miss", "fault_transition"}
)

#: Default ring capacity (events retained per process).
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """A bounded ring buffer of recent telemetry events.

    Args:
        capacity: maximum retained events; older ones fall off the ring
            (but stay counted in ``recorded_total``).
        process: label of the recording process (``"main"``, ``"w0"``).
        dump_path: when set, a triggering event writes the JSON
            artifact here immediately.
        dump_on: event kinds that trigger a dump (default
            :data:`DEFAULT_DUMP_ON`); an empty set disables triggers.
        clock: timestamp source (injected for tests).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        process: str = "main",
        dump_path: Optional[str] = None,
        dump_on: FrozenSet[str] = DEFAULT_DUMP_ON,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.process = process
        self.dump_path = dump_path
        self.dump_on = frozenset(dump_on)
        self.clock = clock
        self.recorded_total = 0
        self.dumps_written = 0
        self.last_dump: Optional[Dict[str, Any]] = None
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **data: Any) -> None:
        """Append one event; dump immediately if ``kind`` triggers."""
        entry: Dict[str, Any] = {"ts": self.clock(), "kind": kind}
        if data:
            entry.update(data)
        self._ring.append(entry)
        self.recorded_total += 1
        if kind in self.dump_on and self.dump_path is not None:
            self.dump(reason=kind)

    # ------------------------------------------------------------------
    # Inspection / dumping
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring."""
        return self.recorded_total - len(self._ring)

    def entries(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (copies)."""
        return [dict(entry) for entry in self._ring]

    def find(self, kind: str) -> List[Dict[str, Any]]:
        """Retained events of one kind, oldest first."""
        return [dict(e) for e in self._ring if e["kind"] == kind]

    def snapshot(self, reason: str = "snapshot") -> Dict[str, Any]:
        """The JSON-ready artifact (without writing it anywhere)."""
        return {
            "process": self.process,
            "reason": reason,
            "dumped_at": self.clock(),
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "dropped": self.dropped,
            "entries": self.entries(),
        }

    def dump(
        self, path: Optional[str] = None, *, reason: str = "manual"
    ) -> Dict[str, Any]:
        """Write the artifact to ``path`` (or ``dump_path``) and return it.

        With neither configured the artifact is still built and
        returned (and kept as ``last_dump``) — callers can ship it over
        a pipe instead of the filesystem.
        """
        artifact = self.snapshot(reason=reason)
        target = path if path is not None else self.dump_path
        if target is not None:
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
                handle.write("\n")
        self.dumps_written += 1
        self.last_dump = artifact
        return artifact

    def extend(self, entries: Iterable[Dict[str, Any]]) -> None:
        """Merge entries recorded elsewhere (e.g. a worker's ring that
        arrived in a telemetry frame) without re-triggering dumps."""
        for entry in entries:
            self._ring.append(dict(entry))
            self.recorded_total += 1


# ----------------------------------------------------------------------
# The process-global recorder
# ----------------------------------------------------------------------
_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The process-wide flight recorder, if one is installed."""
    return _recorder


def set_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Install (or, with ``None``, remove) the process-wide recorder."""
    global _recorder
    _recorder = recorder


def flight_record(kind: str, **data: Any) -> None:
    """Record into the global recorder; a no-op when none is installed.

    This is the hook instrumented code calls from hot-ish paths: the
    un-armed cost is one global read and a ``None`` check.
    """
    if _recorder is not None:
        _recorder.record(kind, **data)
