"""Cross-process telemetry: harvest, merge, and trace stitching.

The spawn workers of :mod:`repro.workers` (the shard serve pool's and
the fleet runner's) keep their own metrics and spans.  This module is
the pipeline that carries them home:

* :func:`snapshot_state` freezes a :class:`MetricsRegistry` into a
  plain-dict *mergeable state*; :func:`merge_snapshots` combines any
  number of states with per-kind semantics (counters add, gauges keep
  the newest write, histograms add bucket-wise).  The merge is
  commutative, associative, and identity-preserving (property-tested),
  so frames may arrive in any order from any number of workers.
* :class:`TelemetryFrame` is the serializable unit a worker ships back
  — its cumulative metric state plus completed spans — piggybacked on
  ``query_batch`` replies or flushed on demand.
* :class:`TelemetryHarvest` absorbs frames on the parent side: it
  applies per-child *deltas* into the live parent registry (so the
  fleet-wide counters are exact even though workers resend cumulative
  state), mirrors each child under a ``worker=<id>`` label, and keeps
  the latest per-worker states for :meth:`TelemetryHarvest.merged`.
* :class:`TraceContext` + :class:`SpanRecorder` + :class:`TraceStitcher`
  are the distributed-tracing half: deterministic span ids (no RNG, no
  uuid — D2-clean for callers in ``repro.shard``), a context that
  pickles into pool dispatch messages so worker spans nest under the
  parent's ``shard.dispatch`` span, and a stitcher that checks every
  span's parent resolves before exporting one JSONL trace tree.

Mergeable-state shape (all JSON-safe, picklable)::

    {"ts": 1754650000.0,
     "families": {
        "worker_serves_total": {
           "kind": "counter", "help": "...",
           "children": [[[["op", "route"]], {"v": 31.0}], ...]}}}

Labels are kept as sorted ``[key, value]`` pair lists (not joined
strings — label values may contain commas or braces).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.registry import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry

State = Dict[str, Any]
ChildKey = Tuple[str, Tuple[Tuple[str, str], ...]]


# ----------------------------------------------------------------------
# Mergeable snapshots
# ----------------------------------------------------------------------
def empty_snapshot() -> State:
    """The identity element of :func:`merge_snapshots`."""
    return {"ts": 0.0, "families": {}}


def snapshot_state(registry: MetricsRegistry, ts: Optional[float] = None) -> State:
    """Freeze ``registry`` into a mergeable, picklable state dict."""
    # Snapshot timestamps order gauge merges ACROSS processes, so they
    # must be wall-clock — there is no shared simulator clock here.
    stamp = time.time() if ts is None else float(ts)  # repro: noqa[D2]
    families: Dict[str, Any] = {}
    for family in registry.families():
        children = []
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind == COUNTER:
                payload: Dict[str, Any] = {"v": child.value}
            elif family.kind == GAUGE:
                payload = {"v": child.value, "ts": stamp}
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
    return {"ts": stamp, "families": families}


def _iter_children(
    state: State,
) -> Iterator[Tuple[str, str, str, Tuple[Tuple[str, str], ...], Dict[str, Any]]]:
    """Yield ``(family, kind, help, label_key, payload)`` over a state."""
    for name in sorted(state.get("families", {})):
        family = state["families"][name]
        for labels, payload in family["children"]:
            key = tuple((str(k), str(v)) for k, v in labels)
            yield name, family["kind"], family.get("help", ""), key, payload


def _merge_gauge(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    # Last-write-wins by (ts, v): the lexicographic max is a join, which
    # is what keeps the merge commutative and associative even when two
    # workers stamped the same instant.
    return dict(b) if (b["ts"], b["v"]) >= (a["ts"], a["v"]) else dict(a)


def _merge_histogram(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    geometry = ("lowest", "factor", "buckets")
    if any(a[g] != b[g] for g in geometry):
        raise ValueError(
            "cannot merge histograms with different bucket geometry: "
            f"{[a[g] for g in geometry]} vs {[b[g] for g in geometry]}"
        )
    mins = [m for m in (a["min"], b["min"]) if m is not None]
    maxes = [m for m in (a["max"], b["max"]) if m is not None]
    return {
        "lowest": a["lowest"],
        "factor": a["factor"],
        "buckets": a["buckets"],
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "count": a["count"] + b["count"],
        "total": a["total"] + b["total"],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def _merge2(left: State, right: State) -> State:
    out: State = {
        "ts": max(left.get("ts", 0.0), right.get("ts", 0.0)),
        "families": {},
    }
    children: Dict[ChildKey, Dict[str, Any]] = {}
    meta: Dict[str, Tuple[str, str]] = {}
    for state in (left, right):
        for name, kind, help_text, key, payload in _iter_children(state):
            if name in meta:
                old_kind, old_help = meta[name]
                if old_kind != kind:
                    raise ValueError(
                        f"family {name!r} is {old_kind} in one snapshot "
                        f"and {kind} in another"
                    )
                meta[name] = (kind, old_help or help_text)
            else:
                meta[name] = (kind, help_text)
            slot = (name, key)
            existing = children.get(slot)
            if existing is None:
                children[slot] = dict(payload)
                if kind == HISTOGRAM:
                    children[slot]["counts"] = list(payload["counts"])
            elif kind == COUNTER:
                children[slot] = {"v": existing["v"] + payload["v"]}
            elif kind == GAUGE:
                children[slot] = _merge_gauge(existing, payload)
            else:
                children[slot] = _merge_histogram(existing, payload)
    for name in sorted(meta):
        kind, help_text = meta[name]
        rows = []
        for (fam, key), payload in sorted(children.items()):
            if fam == name:
                rows.append([[list(pair) for pair in key], payload])
        out["families"][name] = {"kind": kind, "help": help_text, "children": rows}
    return out


def merge_snapshots(*states: State) -> State:
    """Merge mergeable states: counters add, gauges last-write-wins by
    timestamp, histograms add bucket-wise (same geometry required).

    Commutative, associative, and ``empty_snapshot()``-preserving —
    see ``tests/test_obs_pipeline.py`` for the hypothesis proofs.
    """
    merged = empty_snapshot()
    for state in states:
        merged = _merge2(merged, state)
    return merged


def state_value(state: State, name: str, **labels: object) -> float:
    """Counter/gauge child value inside a state (0 if absent)."""
    want = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for fam, _kind, _help, key, payload in _iter_children(state):
        if fam == name and key == want:
            return float(payload["v"])
    return 0.0


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
    metrics: State = field(default_factory=empty_snapshot)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def capture(
        cls,
        worker: str,
        seq: int,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
        ts: Optional[float] = None,
    ) -> "TelemetryFrame":
        """Snapshot the worker's registry (if any) into a frame."""
        metrics = (
            snapshot_state(registry, ts=ts) if registry is not None else empty_snapshot()
        )
        return cls(
            worker=worker,
            seq=seq,
            metrics=metrics,
            spans=list(spans) if spans else [],
        )


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
        self.frames_absorbed = 0
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
        previous = self._states.get(worker, empty_snapshot())
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
        self.frames_absorbed += 1
        return True

    def workers(self) -> List[str]:
        """Workers a frame has been absorbed from, sorted."""
        return sorted(self._states)

    def merged(self) -> State:
        """The latest per-worker states merged into one fleet state."""
        return merge_snapshots(
            *(self._states[worker] for worker in sorted(self._states))
        )


# ----------------------------------------------------------------------
# Distributed tracing: context, recorder, stitcher
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """What crosses the process boundary: a trace id + the parent span.

    Frozen and plain-string so it pickles into pool dispatch messages.
    """

    trace_id: str
    span_id: str


class _RecordedSpan:
    """The in-flight handle yielded by :meth:`SpanRecorder.span`."""

    __slots__ = ("name", "context", "attrs", "_started")

    def __init__(
        self, name: str, context: TraceContext, attrs: Dict[str, Any], started: float
    ) -> None:
        self.name = name
        self.context = context
        self.attrs = attrs
        self._started = started

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class SpanRecorder:
    """Deterministic cross-process span recording.

    Ids are counters scoped by ``origin`` (``"parent-s3"``,
    ``"w0-t1"``), never clocks or RNG — callers in ``repro.shard``
    stay D2-clean, and re-runs produce identical trees.  Completed
    spans accumulate as flat JSON-safe records until :meth:`drain`.
    """

    def __init__(
        self,
        origin: str,
        *,
        clock: Callable[[], float] = time.time,
        perf: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.origin = origin
        self.clock = clock
        self.perf = perf
        self.completed: List[Dict[str, Any]] = []
        self._span_seq = 0
        self._trace_seq = 0
        self._stack: List[_RecordedSpan] = []

    def new_trace_id(self) -> str:
        self._trace_seq += 1
        return f"{self.origin}-t{self._trace_seq}"

    def _new_span_id(self) -> str:
        self._span_seq += 1
        return f"{self.origin}-s{self._span_seq}"

    @property
    def current(self) -> Optional[_RecordedSpan]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> Iterator[_RecordedSpan]:
        """Open a span; nests under ``parent`` (a propagated
        :class:`TraceContext`), else the innermost open span, else a
        fresh trace root."""
        if parent is None and self._stack:
            parent = self._stack[-1].context
        trace_id = parent.trace_id if parent is not None else self.new_trace_id()
        context = TraceContext(trace_id=trace_id, span_id=self._new_span_id())
        handle = _RecordedSpan(name, context, dict(attrs), self.perf())
        start = self.clock()
        self._stack.append(handle)
        try:
            yield handle
        finally:
            self._stack.pop()
            self.completed.append(
                {
                    "trace_id": context.trace_id,
                    "span_id": context.span_id,
                    "parent_id": parent.span_id if parent is not None else None,
                    "name": name,
                    "origin": self.origin,
                    "start": start,
                    "duration_seconds": self.perf() - handle._started,
                    "attrs": handle.attrs,
                }
            )

    def drain(self) -> List[Dict[str, Any]]:
        """Take (and clear) the completed span records."""
        records, self.completed = self.completed, []
        return records


class TraceStitcher:
    """Collects span records from every process into one trace tree."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._ids: set = set()

    def add(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            self.records.append(record)
            self._ids.add(record["span_id"])

    def span_ids(self) -> set:
        return set(self._ids)

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

    def roots(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("parent_id") is None]

    def tree(self) -> List[Dict[str, Any]]:
        """Nested view: ``[{"span": record, "children": [...]}, ...]``,
        children sorted by start time."""
        by_parent: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for record in self.records:
            by_parent.setdefault(record.get("parent_id"), []).append(record)

        def build(record: Dict[str, Any]) -> Dict[str, Any]:
            kids = sorted(
                by_parent.get(record["span_id"], []),
                key=lambda r: (r.get("start", 0.0), r["span_id"]),
            )
            return {"span": record, "children": [build(k) for k in kids]}

        return [
            build(r)
            for r in sorted(
                by_parent.get(None, []),
                key=lambda r: (r.get("start", 0.0), r["span_id"]),
            )
        ]

    def to_jsonl(self, path: str, **extra: Any) -> int:
        """Append every record as one JSON line; returns the count."""
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.records:
                row = dict(extra)
                row.update(record)
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return len(self.records)
