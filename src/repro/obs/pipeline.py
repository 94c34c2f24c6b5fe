"""Cross-process telemetry: harvest and trace stitching.

The spawn workers of :mod:`repro.workers` (the shard serve pool's and
the fleet runner's) keep their own metrics and spans.  This module is
the pipeline that carries them home:

* :func:`snapshot_state` freezes a :class:`MetricsRegistry` into a
  plain-dict state.
* :class:`TelemetryFrame` is the serializable unit a worker ships back
  — its cumulative metric state plus completed spans — piggybacked on
  ``query_batch`` replies or flushed on demand.
* :class:`TelemetryHarvest` absorbs frames on the parent side: it
  applies per-child *deltas* into the live parent registry (so the
  fleet-wide counters are exact even though workers resend cumulative
  state) and mirrors each child under a ``worker=<id>`` label.  That
  registry is the one fleet view.
* :class:`TraceStitcher` collects the span records every process's
  :class:`~repro.obs.tracing.Tracer` drains (deterministic ids, worker
  spans nested under the parent's shipped
  :class:`~repro.obs.tracing.TraceContext`), checks that every span's
  parent resolves, and exports one JSONL trace.  It keeps at most
  :data:`MAX_TRACE_RECORDS` records, evicting whole traces
  oldest-first.

State shape (all JSON-safe, picklable)::

    {"families": {
        "worker_serves_total": {
           "kind": "counter", "help": "...",
           "children": [[[["op", "route"]], {"v": 31.0}], ...]}}}

Labels are kept as sorted ``[key, value]`` pair lists (not joined
strings — label values may contain commas or braces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.registry import COUNTER, GAUGE, MetricsRegistry

State = Dict[str, Any]
ChildKey = Tuple[str, Tuple[Tuple[str, str], ...]]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def snapshot_state(registry: MetricsRegistry) -> State:
    """Freeze ``registry`` into a picklable state dict."""
    families: Dict[str, Any] = {}
    for family in registry.families():
        children = []
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind in (COUNTER, GAUGE):
                payload: Dict[str, Any] = {"v": child.value}
            else:
                payload = {
                    "lowest": child.lowest,
                    "factor": child.factor,
                    "buckets": child.num_buckets,
                    "counts": list(child.counts),
                    "count": child.count,
                    "total": child.total,
                    "min": child.min,
                    "max": child.max,
                }
            children.append([[list(pair) for pair in key], payload])
        families[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "children": children,
        }
    return {"families": families}


def _iter_children(
    state: State,
) -> Iterator[Tuple[str, str, str, Tuple[Tuple[str, str], ...], Dict[str, Any]]]:
    """Yield ``(family, kind, help, label_key, payload)`` over a state."""
    for name in sorted(state.get("families", {})):
        family = state["families"][name]
        for labels, payload in family["children"]:
            key = tuple((str(k), str(v)) for k, v in labels)
            yield name, family["kind"], family.get("help", ""), key, payload


# ----------------------------------------------------------------------
# Telemetry frames and the parent-side harvest
# ----------------------------------------------------------------------
@dataclass
class TelemetryFrame:
    """One worker's shipment: cumulative metric state + finished spans.

    Frames are cumulative (each one supersedes the previous from the
    same worker), which makes loss of any individual frame harmless:
    the next frame carries the truth.  The harvest side applies deltas.
    """

    worker: str
    seq: int
    metrics: State = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def capture(
        cls,
        worker: str,
        seq: int,
        registry: MetricsRegistry,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> "TelemetryFrame":
        """Snapshot the worker's registry into a frame."""
        return cls(worker, seq, snapshot_state(registry), list(spans or ()))


class TelemetryHarvest:
    """Parent-side absorber of worker :class:`TelemetryFrame` s.

    For every metric child in a frame the harvest applies the *delta*
    against the previous frame from the same worker into the live
    parent ``registry`` twice: once under the child's own labels (the
    fleet-wide aggregate) and once with a ``worker=<id>`` label added
    (the per-worker breakdown).  Gauges are set, not summed.  A counter
    or histogram that went backwards means the worker restarted; the
    full current value is applied so nothing is lost.
    """

    def __init__(
        self, registry: MetricsRegistry, *, worker_label: str = "worker"
    ) -> None:
        self.registry = registry
        self.worker_label = worker_label
        self._states: Dict[str, State] = {}
        self._last_seq: Dict[str, int] = {}

    # -- helpers -------------------------------------------------------
    def _targets(
        self, worker: str, key: Tuple[Tuple[str, str], ...]
    ) -> List[Dict[str, str]]:
        fleet = {k: v for k, v in key}
        targets = [fleet]
        if self.worker_label not in fleet:
            labeled = dict(fleet)
            labeled[self.worker_label] = worker
            targets.append(labeled)
        return targets

    def _apply_counter(
        self, worker: str, name: str, help_text: str,
        key: Tuple[Tuple[str, str], ...],
        new: Dict[str, Any], old: Optional[Dict[str, Any]],
    ) -> None:
        previous = old["v"] if old is not None else 0.0
        delta = new["v"] - previous
        if delta < 0:  # worker restarted with a fresh registry
            delta = new["v"]
        if delta == 0:
            return
        for labels in self._targets(worker, key):
            self.registry.counter(name, help_text, **labels).inc(delta)

    def _apply_gauge(
        self, worker: str, name: str, help_text: str,
        key: Tuple[Tuple[str, str], ...], new: Dict[str, Any],
    ) -> None:
        for labels in self._targets(worker, key):
            self.registry.gauge(name, help_text, **labels).set(new["v"])

    def _apply_histogram(
        self, worker: str, name: str, help_text: str,
        key: Tuple[Tuple[str, str], ...],
        new: Dict[str, Any], old: Optional[Dict[str, Any]],
    ) -> None:
        if old is not None and new["count"] < old["count"]:
            old = None  # restart: absorb the fresh histogram wholesale
        deltas = list(new["counts"])
        dcount = new["count"]
        dtotal = new["total"]
        if old is not None:
            deltas = [n - o for n, o in zip(deltas, old["counts"])]
            dcount -= old["count"]
            dtotal -= old["total"]
        if dcount == 0:
            return
        for labels in self._targets(worker, key):
            live = self.registry.histogram(name, help_text, **labels)
            if (live.lowest, live.factor, live.num_buckets) != (
                new["lowest"], new["factor"], new["buckets"]
            ):
                raise ValueError(
                    f"histogram {name!r}: worker bucket geometry differs "
                    "from the parent registry's"
                )
            for index, delta in enumerate(deltas):
                live.counts[index] += delta
            live.count += dcount
            live.total += dtotal
            if new["min"] is not None:
                live.min = (
                    new["min"] if live.min is None else min(live.min, new["min"])
                )
            if new["max"] is not None:
                live.max = (
                    new["max"] if live.max is None else max(live.max, new["max"])
                )

    # -- public --------------------------------------------------------
    def absorb(self, frame: TelemetryFrame) -> bool:
        """Apply one frame; returns False for stale (reordered) frames."""
        worker = frame.worker
        last = self._last_seq.get(worker)
        if last is not None and frame.seq <= last:
            return False
        previous = self._states.get(worker, {})
        old_children: Dict[ChildKey, Dict[str, Any]] = {
            (name, key): payload
            for name, _kind, _help, key, payload in _iter_children(previous)
        }
        for name, kind, help_text, key, payload in _iter_children(frame.metrics):
            old = old_children.get((name, key))
            if kind == COUNTER:
                self._apply_counter(worker, name, help_text, key, payload, old)
            elif kind == GAUGE:
                self._apply_gauge(worker, name, help_text, key, payload)
            else:
                self._apply_histogram(worker, name, help_text, key, payload, old)
        self._states[worker] = frame.metrics
        self._last_seq[worker] = frame.seq
        return True


# ----------------------------------------------------------------------
# Trace stitching
# ----------------------------------------------------------------------
#: Span records a :class:`TraceStitcher` keeps: past it, the oldest
#: whole traces are evicted, so a long-lived worker group holds only
#: its most recent traces.
MAX_TRACE_RECORDS = 2048


class TraceStitcher:
    """Collects the span records of every process into one trace.

    Records are kept per trace, in arrival order.  Once more than
    :data:`MAX_TRACE_RECORDS` are held, whole traces are evicted
    oldest-first (the newest is always kept), so every kept span's
    parent is kept too.
    """

    def __init__(self) -> None:
        self._traces: Dict[Optional[str], List[Dict[str, Any]]] = {}
        self._ids: set = set()
        self._count = 0

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Every kept record, trace by trace (oldest trace first)."""
        return [r for trace in self._traces.values() for r in trace]

    def add(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            self._traces.setdefault(record.get("trace_id"), []).append(record)
            self._ids.add(record["span_id"])
        self._count += len(records)
        while self._count > MAX_TRACE_RECORDS and len(self._traces) > 1:
            evicted = self._traces.pop(next(iter(self._traces)))
            self._count -= len(evicted)
            self._ids.difference_update(r["span_id"] for r in evicted)

    def unparented(self) -> List[Dict[str, Any]]:
        """Records whose ``parent_id`` does not resolve (roots excluded)."""
        return [
            r
            for r in self.records
            if r.get("parent_id") is not None and r["parent_id"] not in self._ids
        ]

    def fully_parented(self) -> bool:
        """True when every non-root span's parent is present."""
        return not self.unparented()

    def to_jsonl(self, path: str) -> int:
        """Write every kept record as one JSON line, replacing ``path``;
        returns the count."""
        records = self.records
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)
