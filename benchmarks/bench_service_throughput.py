"""Backbone-service throughput: cached serving vs rebuild-per-query.

The service's reason to exist: every CLI invocation today rebuilds the
topology and backbone from scratch, while :class:`BackboneService`
answers from its route cache and last-good tables.  Acceptance targets
(asserted here):

* the cached query path is at least **5x** faster per query than the
  rebuild-per-query baseline on a 500-node topology;
* a gentle churn replay whose measured costs favour notes finishes
  with **zero full rebuilds** (per-node re-stitching only);
* hit rate, p95 latency, and repair counts export as JSON.
"""

import json
import time

import pytest

from bench_utils import show
from repro.graphs import connected_random_udg
from repro.mobility import RandomWaypointModel
from repro.routing import ClusterheadRouter
from repro.service import (
    BackboneService,
    WorkloadConfig,
    WorkloadGenerator,
    replay,
)
from repro.wcds import algorithm2_centralized
from repro.wcds.base import is_weakly_connected_dominating_set

NODES = 500
SIDE = 11.0
SEED = 7


@pytest.fixture(scope="module")
def topology():
    return connected_random_udg(NODES, SIDE, seed=SEED)


def _route_queries(graph, count, seed=1):
    generator = WorkloadGenerator(
        sorted(graph.nodes()),
        WorkloadConfig(queries=count, mix=(("route", 1.0),), seed=seed),
    )
    return [(request.src, request.dst) for request in generator.requests()]


def test_cached_path_5x_faster_than_rebuild_per_query(benchmark, topology):
    queries = _route_queries(topology, 400)
    service = BackboneService(topology.copy())

    def serve_all():
        for src, dst in queries:
            response = service.route(src, dst)
            assert response.ok, response.error
        return service

    benchmark.pedantic(serve_all, rounds=1, iterations=1)
    started = time.perf_counter()
    for src, dst in queries:
        assert service.route(src, dst).ok
    cached_per_query = (time.perf_counter() - started) / len(queries)

    sample = queries[:5]
    started = time.perf_counter()
    for src, dst in sample:
        result = algorithm2_centralized(topology)
        ClusterheadRouter(topology, result).route(src, dst)
    rebuild_per_query = (time.perf_counter() - started) / len(sample)

    speedup = rebuild_per_query / cached_per_query
    show(
        f"Cached service vs rebuild-per-query (n={NODES})",
        [
            {
                "cached_us": cached_per_query * 1e6,
                "rebuild_us": rebuild_per_query * 1e6,
                "speedup": speedup,
                "route_hit_rate": service.metrics.hit_rate("route_cache"),
            }
        ],
    )
    assert speedup >= 5.0, f"cached path only {speedup:.1f}x faster"


def test_churn_replay_zero_rebuilds_below_threshold(topology):
    graph = topology.copy()
    # A constant clock measures notes as free, so every refresh notes.
    service = BackboneService(graph, clock=lambda: 0.0)
    mobility = RandomWaypointModel(
        graph, SIDE, speed_range=(0.005, 0.02), seed=SEED
    )
    generator = WorkloadGenerator(
        sorted(graph.nodes()),
        WorkloadConfig(queries=600, churn_every=60, seed=2),
    )
    summary = replay(service, generator.requests(), mobility=mobility)

    counters = summary.metrics["counters"]
    assert summary.churn_steps > 0 and summary.errors == 0
    assert counters.get("rebuilds_full", 0) == 0, "expected incremental repairs only"
    assert counters.get("repairs", 0) > 0
    backbone = service.backbone().value
    assert is_weakly_connected_dominating_set(service.graph, backbone.dominators)

    payload = {
        "route_cache_hit_rate": summary.metrics["hit_rates"]["route_cache"],
        "p95_route_seconds": summary.metrics["latency_seconds"]["route"]["p95"],
        "repairs": counters.get("repairs", 0),
        "rebuilds_full": counters.get("rebuilds_full", 0),
        "stale_served": counters.get("stale_served", 0),
    }
    encoded = json.dumps(payload, indent=2)
    print(f"\nchurn replay metrics:\n{encoded}")
    assert json.loads(encoded)["rebuilds_full"] == 0


def test_metrics_json_schema(topology):
    service = BackboneService(topology.copy())
    for src, dst in _route_queries(topology, 50, seed=3):
        service.route(src, dst)
    snapshot = json.loads(service.metrics.to_json())
    assert set(snapshot) == {"counters", "hit_rates", "latency_seconds"}
    assert "route_cache" in snapshot["hit_rates"]
    route_latency = snapshot["latency_seconds"]["route"]
    assert {"count", "mean", "p50", "p95", "p99"} <= set(route_latency)
    assert route_latency["count"] == 50
