"""Unified telemetry: metrics registry, span tracing, cost accounting.

``repro.obs`` is the repo's one instrumentation layer — dependency-free
and near-zero-cost when idle:

* :class:`MetricsRegistry` — named counters, gauges, and
  geometric-bucket histograms with labeled children; exports as plain
  dicts/JSON, Prometheus text exposition, or JSONL append.
* :class:`Tracer` — nested ``span(name, **attrs)`` context managers
  with monotonic timings and deterministic ids, in one process or
  across spawn workers; the process default is a :class:`NullTracer`,
  so uninstrumented runs pay almost nothing.
* :class:`MessageCostReport` / :func:`measure_message_costs` — measured
  per-phase message and round totals of the WCDS algorithms checked
  against the Theorem 12 complexity envelopes.

The simulator, both WCDS algorithms, leader election, and the backbone
service all accept a registry (and, where phased, a tracer); the
``repro obs-report`` CLI command ties it together.  See
``docs/OBSERVABILITY.md``.
"""

from repro.obs.cost import (
    CostSample,
    MessageCostReport,
    annotate_phase,
    measure_message_costs,
)
from repro.obs.flightrec import (
    FlightRecorder,
    flight_record,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.obs.pipeline import (
    TelemetryFrame,
    TelemetryHarvest,
    TraceStitcher,
    snapshot_state,
)
from repro.obs.prometheus import escape_label_value
from repro.obs.slo import SLO, SLOMonitor
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CostSample",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MessageCostReport",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullTracer",
    "SLO",
    "SLOMonitor",
    "Span",
    "TelemetryFrame",
    "TelemetryHarvest",
    "TraceContext",
    "TraceStitcher",
    "Tracer",
    "annotate_phase",
    "escape_label_value",
    "flight_record",
    "get_flight_recorder",
    "get_tracer",
    "measure_message_costs",
    "set_flight_recorder",
    "set_tracer",
    "snapshot_state",
    "use_tracer",
]
