"""Service instrumentation: counters and latency histograms.

:class:`ServiceMetrics` sits on an :class:`repro.obs.MetricsRegistry`:
counters are registry counters, request latencies go into the
registry's labeled ``request_latency_seconds`` histogram family
(:class:`repro.obs.Histogram`), the time of each refresh phase into
the ``refresh_phase_seconds`` family, and the Prometheus/JSONL
exporters come along for free.  On top it adds ``hit_rate``,
``snapshot`` and ``rows``.

Each counter and per-operation latency histogram is looked up in the
registry once, on first use, and its handle kept, so a request's
bookkeeping does not sort label tuples.  The registry still holds the
same children, so every export reads as before.  A child the registry
handed out past its cardinality cap is detached and never kept: asking
again is what counts each such drop.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.registry import Counter, Histogram, MetricsRegistry

__all__ = ["ServiceMetrics"]

#: Registry family holding one histogram per request operation.
LATENCY_FAMILY = "request_latency_seconds"
#: Registry family holding one histogram per refresh phase: ``absorb``
#: (noting or re-constructing the backbone), ``graph_copy``,
#: ``numbering`` and ``router_build`` (freezing the snapshot).
PHASE_FAMILY = "refresh_phase_seconds"


class _CounterView:
    """Read-only, zero-defaulting mapping over the registry's plain
    (label-less) counters — keeps ``metrics.counters[...]`` working."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def _families(self):
        for family in self._registry.families():
            if family.kind == "counter" and () in family.children:
                yield family.name, family.children[()]

    def __getitem__(self, name: str) -> int:
        value = self._registry.value(name)
        return int(value) if value == int(value) else value

    def get(self, name: str, default: int = 0) -> int:
        return self[name] if name in self else default

    def __contains__(self, name: str) -> bool:
        return any(name == n for n, _ in self._families())

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._families())

    def __len__(self) -> int:
        return sum(1 for _ in self._families())

    def items(self) -> List[Tuple[str, int]]:
        return [(name, self[name]) for name, _ in self._families()]


class ServiceMetrics:
    """All counters and histograms of one service instance.

    Backed by ``registry`` (a fresh :class:`MetricsRegistry` by
    default) — pass a shared registry to co-locate service telemetry
    with simulator and protocol counters in one export.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = _CounterView(self.registry)
        # Handles bound on first use: counters by name, latency
        # histograms by operation.
        self._counter_handles: Dict[str, Counter] = {}
        self._latency_handles: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` (created on first use)."""
        counter = self._counter_handles.get(name)
        if counter is None:
            # Label-less, so never a detached over-cap child.
            counter = self._counter_handles[name] = self.registry.counter(name)
        counter.inc(amount)

    def observe(self, operation: str, seconds: float) -> None:
        """Record one request latency under ``operation``."""
        histogram = self._latency_handles.get(operation)
        if histogram is None:
            histogram = self.registry.histogram(
                LATENCY_FAMILY, "Request latency by operation", op=operation
            )
            if self.registry.holds(histogram):
                self._latency_handles[operation] = histogram
        histogram.observe(seconds)

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record the time one refresh spent in ``phase``."""
        self.registry.histogram(
            PHASE_FAMILY, "Refresh time by phase", phase=phase
        ).observe(seconds)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def hit_rate(self, cache: str) -> float:
        """``<cache>_hits / (<cache>_hits + <cache>_misses)`` (0 if cold)."""
        hits = self.registry.value(f"{cache}_hits")
        misses = self.registry.value(f"{cache}_misses")
        return hits / (hits + misses) if hits + misses else 0.0

    def _latencies(self) -> Dict[str, Histogram]:
        return {
            dict(key)["op"]: histogram
            for key, histogram in self.registry.children(LATENCY_FAMILY).items()
        }

    @property
    def latency(self) -> Dict[str, Histogram]:
        """Per-operation latency histograms (live objects)."""
        return self._latencies()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: counters, hit rates, latency summaries."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "hit_rates": {"route_cache": round(self.hit_rate("route_cache"), 4)},
            "latency_seconds": {
                operation: {
                    key: (value if key == "count" else round(value, 9))
                    for key, value in histogram.summary().items()
                }
                for operation, histogram in sorted(self._latencies().items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent)

    def rows(self) -> List[Mapping[str, object]]:
        """Latency summary rows for :func:`repro.analysis.print_table`."""
        rows: List[Mapping[str, object]] = []
        for operation, histogram in sorted(self._latencies().items()):
            summary = histogram.summary()
            rows.append(
                {
                    "operation": operation,
                    "count": summary["count"],
                    "mean_us": summary["mean"] * 1e6,
                    "p50_us": summary["p50"] * 1e6,
                    "p95_us": summary["p95"] * 1e6,
                    "p99_us": summary["p99"] * 1e6,
                }
            )
        return rows
