"""Backbone-as-a-service: a long-lived WCDS serving queries under churn.

The package turns the one-shot constructions of :mod:`repro.wcds` into
a serving runtime: :class:`BackboneService` owns a topology, answers
``dominator`` / ``route`` / ``backbone`` / ``broadcast_plan`` queries
from its one frozen snapshot (routes and broadcast plans cached on
top), absorbs join / leave / move updates with one exact engine (the
tiled Algorithm II of :mod:`repro.shard`), and records counters plus
latency histograms for everything it does.  See ``docs/SERVICE.md``.
"""

from repro.service.cache import RouteCache
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.requests import Request, RequestQueue, Response
from repro.service.service import BackboneService
from repro.service.workload import (
    DEFAULT_MIX,
    ReplaySummary,
    WorkloadConfig,
    WorkloadGenerator,
    load_trace,
    replay,
    save_trace,
    zipf_weights,
)

__all__ = [
    "BackboneService",
    "DEFAULT_MIX",
    "ReplaySummary",
    "Request",
    "RequestQueue",
    "Response",
    "RouteCache",
    "ServiceConfig",
    "ServiceMetrics",
    "WorkloadConfig",
    "WorkloadGenerator",
    "load_trace",
    "replay",
    "save_trace",
    "zipf_weights",
]
