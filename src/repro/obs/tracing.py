"""Span tracing: nested, timed spans, in one process or across several.

A :class:`Tracer` produces :class:`Span` objects through the
``span(name, **attrs)`` context manager; spans nest (the tracer keeps a
stack) and carry monotonic timings from :func:`time.perf_counter`.  The
module-global default tracer is a :class:`NullTracer` whose ``span``
hands back one shared no-op object, so uninstrumented runs pay a single
attribute lookup and no allocation per would-be span.

Usage::

    tracer = Tracer()
    with tracer.span("algorithm1", n=200) as root:
        with tracer.span("election") as s:
            ...
            s.set_attr("messages", stats.messages_sent)
    tracer.to_dict()   # nested spans with durations and attrs

Instrumented code takes an optional ``tracer`` argument and falls back
to :func:`get_tracer`, so one ``set_tracer(Tracer())`` call turns the
whole stack's tracing on.

Across processes, every span has deterministic ids and a
:class:`TraceContext`; a spawn worker's ``Tracer("w0")`` opens
``span(name, parent=ctx)`` under the context the parent shipped, and
:meth:`Tracer.drain` hands the finished spans over as flat records for
:class:`repro.obs.pipeline.TraceStitcher`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceContext:
    """What crosses the process boundary: a trace id + the parent span.

    Frozen and plain-string so it pickles into pool dispatch messages.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed, attributed, nestable unit of work.

    ``start``/``end`` are :func:`time.perf_counter` readings; the ids
    are the owning tracer's counters, and ``parent_id`` is the
    enclosing span's id, the remote parent's, or ``None`` at a trace
    root.
    """

    __slots__ = ("name", "attrs", "start", "end", "children",
                 "trace_id", "span_id", "parent_id")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, object],
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def context(self) -> TraceContext:
        """The handle a child in another process nests under."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        """Seconds from start to finish (to now while still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def set_attr(self, key: str, value: object) -> None:
        """Attach or overwrite one attribute."""
        self.attrs[key] = value

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the span subtree."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_seconds": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Tracer:
    """Collects a forest of spans from nested ``span(...)`` contexts.

    Ids are counters scoped by ``origin`` (``"parent-s3"``,
    ``"w0-t1"``), never clocks or RNG, so re-runs produce identical
    trees and the tracer of a spawn worker can nest its spans under a
    parent-process span whose :class:`TraceContext` it was sent.
    """

    enabled = True

    def __init__(self, origin: str = "main") -> None:
        self.origin = origin
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._span_seq = 0
        self._trace_seq = 0
        # perf_counter() + _epoch is wall-clock time, for the records'
        # ``start``; reading it once keeps spans off the wall clock.
        self._epoch = time.time() - time.perf_counter()

    @contextmanager
    def span(
        self, name: str, parent: Optional[TraceContext] = None, **attrs: Any
    ) -> Iterator[Span]:
        """Open a span: a child of ``parent`` (a :class:`TraceContext`
        from another tracer, making it a local root), else of the
        current span, else a new trace root."""
        self._span_seq += 1
        span_id = f"{self.origin}-s{self._span_seq}"
        stack = self._stack
        if parent is None and stack:
            up = stack[-1]
            span = Span(name, attrs, up.trace_id, span_id, up.span_id)
            up.children.append(span)
        elif parent is not None:
            span = Span(name, attrs, parent.trace_id, span_id, parent.span_id)
            self.roots.append(span)
        else:
            self._trace_seq += 1
            trace_id = f"{self.origin}-t{self._trace_seq}"
            span = Span(name, attrs, trace_id, span_id, None)
            self.roots.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            stack.pop()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def find(self, name: str) -> List[Span]:
        """Every finished-or-open span called ``name``, depth-first."""
        found: List[Span] = []

        def walk(span: Span) -> None:
            if span.name == name:
                found.append(span)
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return found

    def drain(self) -> List[Dict[str, Any]]:
        """Take the finished root subtrees as flat JSON-safe records
        (open roots stay); one record per span, parents first."""
        records: List[Dict[str, Any]] = []

        def flatten(span: Span) -> None:
            records.append({
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "origin": self.origin,
                "start": self._epoch + span.start,
                "duration_seconds": span.duration,
                "attrs": span.attrs,
            })
            for child in span.children:
                flatten(child)

        open_roots: List[Span] = []
        for root in self.roots:
            if root.end is None:
                open_roots.append(root)
            else:
                flatten(root)
        self.roots = open_roots
        return records

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: the full span forest."""
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _NullSpan:
    """Shared inert span: absorbs every call, records nothing."""

    __slots__ = ()
    name = "null"
    attrs: Dict[str, object] = {}
    children: List[Span] = []
    duration = 0.0

    def set_attr(self, key: str, value: object) -> None:
        pass

    def finish(self) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:
        return {"name": "null", "duration_seconds": 0.0}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every span is the shared no-op span.

    ``span`` is not a generator context manager — it returns the one
    :data:`NULL_SPAN` object, which is its own context manager — so the
    disabled path costs one method call and zero allocations.
    """

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def find(self, name: str) -> List[Span]:
        return []

    def to_dict(self) -> Dict[str, object]:
        return {"spans": []}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


_DEFAULT = NullTracer()
_current_tracer = _DEFAULT


def get_tracer():
    """The process-wide default tracer (a no-op unless replaced)."""
    return _current_tracer


def set_tracer(tracer) -> None:
    """Replace the process-wide default tracer (``None`` resets)."""
    global _current_tracer
    _current_tracer = tracer if tracer is not None else _DEFAULT


@contextmanager
def use_tracer(tracer) -> Iterator[object]:
    """Scoped :func:`set_tracer`: restore the previous default on exit."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer if tracer is not None else _DEFAULT
    try:
        yield tracer
    finally:
        _current_tracer = previous
