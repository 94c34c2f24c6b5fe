"""Tests for the backbone service runtime: requests, caches, metrics,
freshness/staleness, incremental maintenance, and workload replay."""

import json

import pytest

from repro.graphs import connected_random_udg
from repro.mobility import RandomWaypointModel
from repro.service import (
    BackboneCache,
    BackboneService,
    LatencyHistogram,
    Request,
    RequestQueue,
    RouteCache,
    ServiceConfig,
    ServiceMetrics,
    WorkloadConfig,
    WorkloadGenerator,
    load_trace,
    replay,
    save_trace,
    topology_fingerprint,
    zipf_weights,
)
from repro.wcds.base import is_weakly_connected_dominating_set


@pytest.fixture()
def network():
    return connected_random_udg(60, 5.0, seed=3)


@pytest.fixture()
def service(network):
    return BackboneService(network)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TestRequests:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Request(op="teleport")

    def test_missing_operands_rejected(self):
        with pytest.raises(ValueError):
            Request(op="route", src=1)
        with pytest.raises(ValueError):
            Request(op="dominator")
        with pytest.raises(ValueError):
            Request(op="join", node=1)

    def test_dict_round_trip(self):
        original = Request(op="route", src=3, dst=9, deadline=0.5)
        assert Request.from_dict(original.to_dict()) == original
        churn = Request(op="churn", steps=4)
        assert Request.from_dict(churn.to_dict()).steps == 4

    def test_bounded_queue_rejects_when_full(self):
        queue = RequestQueue(capacity=2)
        assert queue.offer(Request(op="backbone"))
        assert queue.offer(Request(op="backbone"))
        assert not queue.offer(Request(op="backbone"))
        assert queue.rejected == 1 and len(queue) == 2
        assert queue.take() is not None
        assert queue.offer(Request(op="backbone"))


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
class TestTopologyFingerprint:
    def test_equal_topologies_equal_fingerprints(self, network):
        assert topology_fingerprint(network) == topology_fingerprint(network.copy())

    def test_fingerprint_tracks_content_not_history(self, network):
        from repro.geometry.point import Point

        fingerprint = topology_fingerprint(network)
        home = network.positions[0]
        network.move_node(0, Point(home.x + 0.3, home.y))
        assert topology_fingerprint(network) != fingerprint
        network.move_node(0, home)  # move back: same content, same key
        assert topology_fingerprint(network) == fingerprint


class TestRouteCache:
    def test_lru_eviction(self):
        cache = RouteCache(capacity=2)
        cache.put(0, 1, [0, 1])
        cache.put(1, 2, [1, 2])
        assert cache.get(0, 1) is not None  # refresh recency
        cache.put(2, 3, [2, 3])  # evicts (1, 2)
        assert cache.get(1, 2) is None
        assert cache.get(0, 1) == [0, 1]

    def test_reverse_direction_hit(self):
        cache = RouteCache(capacity=4)
        cache.put(0, 3, [0, 1, 3])
        assert cache.get(3, 0) == [3, 1, 0]

    def test_invalidate_nodes_only_touches_matching_paths(self):
        cache = RouteCache(capacity=8)
        cache.put(0, 2, [0, 1, 2])
        cache.put(5, 7, [5, 6, 7])
        assert cache.invalidate_nodes([1]) == 1
        assert cache.get(0, 2) is None
        assert cache.get(5, 7) == [5, 6, 7]

    def test_invalidate_region_uses_hop_radius(self, network):
        cache = RouteCache(capacity=8)
        nodes = sorted(network.nodes())
        cache.put(nodes[0], nodes[1], [nodes[0], nodes[1]])
        # A region of radius 0 around an absent seed hits only routes
        # through the seed itself.
        cache.put("ghost", nodes[2], ["ghost", nodes[2]])
        evicted = cache.invalidate_region(network, ["ghost"], radius=2)
        assert evicted == 1
        assert cache.get(nodes[0], nodes[1]) is not None


class TestBackboneCache:
    def test_lru_of_fingerprints(self, network):
        from repro.wcds import algorithm2_centralized

        result = algorithm2_centralized(network)
        cache = BackboneCache(capacity=1)
        cache.put("a", result)
        cache.put("b", result)
        assert "a" not in cache and cache.get("b") is result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_quantiles_ordered(self):
        histogram = LatencyHistogram()
        for sample in (1e-5, 2e-5, 4e-5, 1e-4, 5e-3):
            histogram.observe(sample)
        assert histogram.count == 5
        assert histogram.min == 1e-5 and histogram.max == 5e-3
        p50, p95, p99 = (
            histogram.quantile(0.5),
            histogram.quantile(0.95),
            histogram.quantile(0.99),
        )
        assert histogram.min <= p50 <= p95 <= p99 <= histogram.max

    def test_histogram_empty(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.99) == 0.0 and histogram.mean == 0.0

    def test_hit_rate(self):
        metrics = ServiceMetrics()
        metrics.incr("route_cache_hits", 3)
        metrics.incr("route_cache_misses", 1)
        assert metrics.hit_rate("route_cache") == 0.75
        assert metrics.hit_rate("backbone_cache") == 0.0

    def test_snapshot_is_json_ready(self):
        metrics = ServiceMetrics()
        metrics.incr("requests_total")
        metrics.observe("route", 0.002)
        snapshot = json.loads(metrics.to_json())
        assert snapshot["counters"]["requests_total"] == 1
        assert snapshot["latency_seconds"]["route"]["count"] == 1


# ----------------------------------------------------------------------
# The service itself
# ----------------------------------------------------------------------
class TestServiceQueries:
    def test_dominator_matches_router(self, network, service):
        from repro.routing import ClusterheadRouter
        from repro.wcds import algorithm2_centralized

        reference = ClusterheadRouter(network, algorithm2_centralized(network))
        for node in sorted(network.nodes()):
            response = service.dominator(node)
            assert response.ok and not response.stale
            assert response.value == reference.clusterhead_of(node)

    def test_route_is_walkable_and_cached(self, network, service):
        first = service.route(0, 42)
        assert first.ok
        snapshot_router = service._snapshot.router
        snapshot_router.validate_path(first.value)
        second = service.route(0, 42)
        assert second.value == first.value
        assert service.metrics.counters["route_cache_hits"] == 1
        # Reverse direction also hits.
        third = service.route(42, 0)
        assert third.value == list(reversed(first.value))
        assert service.metrics.counters["route_cache_hits"] == 2

    def test_backbone_is_valid_and_content_cached(self, network, service):
        first = service.backbone()
        assert first.ok
        assert is_weakly_connected_dominating_set(network, first.value.dominators)
        again = service.backbone()
        assert again.value is first.value
        assert service.metrics.counters["backbone_cache_hits"] >= 1

    def test_broadcast_plan_covers_everyone(self, network, service):
        plan = service.broadcast_plan(0).value
        assert plan["covered"] == plan["total"] == network.num_nodes
        assert plan["transmissions"] == len(plan["forwarders"]) < network.num_nodes
        cached = service.broadcast_plan(0).value
        assert cached is plan

    def test_broadcast_plans_equal_the_per_plan_spanner_build(self, network, service):
        # Plans share one lazily built spanner per snapshot; they must
        # equal plans that rebuild the spanner each time, forwarder
        # order included — before and after churn is absorbed.
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.05, 0.1), seed=4
        )
        for _ in range(2):
            snapshot = service._snapshot
            for source in sorted(snapshot.graph.nodes()):
                plan = service.broadcast_plan(source).value
                assert plan == _reference_plan(snapshot, source)
            service.ingest_events(mobility.step())
            service.refresh()
            assert service._snapshot is not snapshot

    def test_unknown_node_is_an_error_response(self, service):
        response = service.dominator(10_000)
        assert not response.ok and "unknown node" in response.error
        assert service.metrics.counters["requests_total"] == 1


class TestServiceUpdates:
    def test_join_then_query(self, service):
        service.join(999, 2.5, 2.5)
        response = service.dominator(999)
        assert response.ok and not response.stale
        backbone = service.backbone().value
        assert is_weakly_connected_dominating_set(
            service.graph, backbone.dominators
        )

    def test_leave_then_query(self, service):
        service.leave(0)
        assert not service.dominator(0).ok
        backbone = service.backbone().value
        assert 0 not in backbone.dominators
        assert is_weakly_connected_dominating_set(
            service.graph, backbone.dominators
        )

    def test_move_invalidates_routes_by_region(self, network, service):
        path = service.route(0, 42).value
        moved = path[len(path) // 2]
        position = network.positions[moved]
        service.move(moved, position.x + 0.4, position.y + 0.4)
        # The cached route passed through the moved region: miss again.
        service.route(0, 42)
        assert service.metrics.counters["route_cache_misses"] == 2

    def test_gentle_churn_repairs_without_rebuild(self, network, service):
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.005, 0.02), seed=9
        )
        for _ in range(10):
            service.ingest_events(mobility.step())
            backbone = service.backbone().value
            assert is_weakly_connected_dominating_set(
                service.graph, backbone.dominators
            )
        counters = service.metrics.counters
        assert counters["rebuilds_full"] == 0
        assert counters["repairs"] > 0

    def test_heavy_churn_triggers_full_rebuild(self, network, service):
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.4, 0.8), seed=9
        )
        for _ in range(3):
            service.ingest_events(mobility.step())
        service.backbone()
        assert service.metrics.counters["rebuilds_full"] >= 1
        assert service.dirtiness == 0.0  # reset after absorbing

    def test_dirtiness_accumulates_until_flush(self, network, service):
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=9
        )
        service.ingest_events(mobility.step())
        assert service.has_pending_work
        before = service.dirtiness
        service.ingest_events(mobility.step())
        assert service.dirtiness >= before
        service.backbone()
        assert not service.has_pending_work and service.dirtiness == 0.0


class TestStaleness:
    def _slow_service(self, network):
        # Virtual clock: freshness decisions use the EWMA cost estimate,
        # which we pin high so any finite deadline forces a stale serve.
        clock = {"now": 0.0}
        service = BackboneService(network, clock=lambda: clock["now"])
        service._rebuild_cost.value = 10.0
        service._repair_cost.value = 10.0
        return service

    def test_deadline_serves_last_good_stale(self, network):
        service = self._slow_service(network)
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=1
        )
        service.ingest_events(mobility.step())
        response = service.backbone(deadline=0.001)
        assert response.ok and response.stale
        assert service.has_pending_work  # refresh was skipped
        route = service.route(0, 42, deadline=0.001)
        assert route.ok and route.stale
        assert service.metrics.counters["stale_served"] == 2

    def test_no_deadline_refreshes_synchronously(self, network):
        service = self._slow_service(network)
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=1
        )
        service.ingest_events(mobility.step())
        response = service.backbone()
        assert response.ok and not response.stale
        assert not service.has_pending_work

    def test_fresh_service_ignores_deadline(self, network):
        service = self._slow_service(network)
        response = service.backbone(deadline=0.001)
        assert response.ok and not response.stale

    def test_default_deadline_from_config(self, network):
        clock = {"now": 0.0}
        service = BackboneService(
            network,
            ServiceConfig(default_deadline=0.001),
            clock=lambda: clock["now"],
        )
        service._rebuild_cost.value = 10.0
        service._repair_cost.value = 10.0
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=1
        )
        service.ingest_events(mobility.step())
        assert service.backbone().stale


class TestQueueAndDrain:
    def test_enqueue_drain_order(self, service):
        assert service.enqueue(Request(op="dominator", node=0))
        assert service.enqueue(Request(op="backbone"))
        responses = service.drain()
        assert [r.request.op for r in responses] == ["dominator", "backbone"]
        assert all(r.ok for r in responses)

    def test_rejection_counted(self, network):
        service = BackboneService(network, ServiceConfig(queue_capacity=1))
        assert service.enqueue(Request(op="backbone"))
        assert not service.enqueue(Request(op="backbone"))
        assert service.metrics.counters["requests_rejected"] == 1


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
class TestWorkload:
    def test_zipf_weights_decrease(self):
        weights = zipf_weights(5, 1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_generator_is_reproducible(self, network):
        nodes = sorted(network.nodes())
        config = WorkloadConfig(queries=50, churn_every=10, seed=4)
        first = list(WorkloadGenerator(nodes, config).requests())
        second = list(WorkloadGenerator(nodes, config).requests())
        assert first == second
        assert sum(1 for r in first if r.op == "churn") == 4

    def test_trace_round_trip(self, network, tmp_path):
        nodes = sorted(network.nodes())
        requests = list(
            WorkloadGenerator(
                nodes, WorkloadConfig(queries=30, churn_every=7, seed=1)
            ).requests()
        )
        path = str(tmp_path / "trace.jsonl")
        assert save_trace(requests, path) == len(requests)
        assert load_trace(path) == requests

    def test_replay_counts_and_metrics(self, network, service):
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.005, 0.02), seed=2
        )
        generator = WorkloadGenerator(
            sorted(network.nodes()),
            WorkloadConfig(queries=120, churn_every=40, seed=6),
        )
        summary = replay(
            service, generator.requests(), mobility=mobility,
            collect_responses=True,
        )
        assert summary.responses == 120 == len(summary.collected)
        assert summary.errors == 0
        assert summary.churn_steps == 2
        assert summary.metrics["counters"]["requests_total"] == 120

    def test_replay_without_mobility_skips_churn(self, network, service):
        generator = WorkloadGenerator(
            sorted(network.nodes()),
            WorkloadConfig(queries=20, churn_every=5, seed=6),
        )
        summary = replay(service, generator.requests())
        assert summary.churn_steps == 0 and summary.responses == 20

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(queries=-1)
        with pytest.raises(ValueError):
            WorkloadConfig(mix=())
        with pytest.raises(ValueError):
            ServiceConfig(rebuild_threshold=0.0)


class TestFaultSignals:
    """Service-layer reaction to repro.faults events: crashes shrink
    the topology, revivals restore it, and an active partition flips
    the service into stale-serving degraded mode."""

    def test_crash_then_revive_roundtrip(self, network, service):
        from repro.faults import Crash, Revive

        victim = max(network.nodes())
        service.fault_signal(Crash(4.0, victim))
        service.refresh()
        assert victim not in service.graph
        assert service.metrics.counters["fault_crashes"] == 1
        service.fault_signal(Revive(9.0, victim))
        service.refresh()
        assert victim in service.graph
        assert service.metrics.counters["fault_revivals"] == 1
        # Queries work against the healed topology.
        assert service.dominator(victim).ok

    def test_partition_degrades_to_stale_serving(self, network, service):
        from repro.faults import Crash, Partition

        service.dominator(0)  # build the first snapshot
        part = Partition(3.0, 12.0, frozenset({0, 1}))
        service.fault_signal(part)
        assert service.degraded
        # A topology event arrives during the partition; the service
        # answers from the last-good snapshot and marks it stale
        # rather than rebuilding on a split topology.
        service.fault_signal(Crash(5.0, max(network.nodes())))
        response = service.dominator(0)
        assert response.ok and response.stale
        assert service.metrics.counters["degraded_serves"] >= 1
        # Healing restores normal (fresh) service.
        service.heal_signal(part)
        assert not service.degraded
        fresh = service.dominator(0)
        assert fresh.ok and not fresh.stale
        assert service.metrics.counters["fault_heals"] == 1

    def test_degradation_can_be_disabled(self, network):
        from repro.faults import Partition

        svc = BackboneService(network, ServiceConfig(degrade_on_partition=False))
        svc.fault_signal(Partition(0.0, 5.0, frozenset({0})))
        assert not svc.degraded
        assert svc.dominator(0).ok

    def test_unknown_event_rejected(self, service):
        with pytest.raises(TypeError):
            service.fault_signal(object())

    def test_loss_burst_is_counted_only(self, network, service):
        from repro.faults import LossBurst

        before = service.graph.num_nodes
        service.fault_signal(LossBurst(0.0, 5.0, 0.3))
        service.refresh()
        assert service.graph.num_nodes == before
        assert service.metrics.counters["fault_loss_bursts"] == 1

    def test_revive_before_flush_rejoins(self, network, service):
        # The crash's leave is still pending when the revival arrives;
        # the queued off-then-on order must bring the node back.
        from repro.faults import Crash, Revive

        victim = max(network.nodes())
        service.fault_signal(Crash(4.0, victim))
        service.fault_signal(Revive(5.0, victim))
        service.refresh()
        assert victim in service.graph
        assert service.dominator(victim).ok


# ----------------------------------------------------------------------
# Sharded maintenance (ServiceConfig.sharding)
# ----------------------------------------------------------------------
class TestShardedService:
    """With ``sharding`` set, the backbone is maintained by frontier
    re-stitching and route invalidation is scoped to the tiles reading
    the touched nodes — gentle churn must not evict unrelated cached
    routes, and there is no whole-cache ``clear()`` path at all."""

    @pytest.fixture()
    def grid(self):
        from repro.shard.bench import jittered_grid

        return jittered_grid(900, seed=4)

    @pytest.fixture()
    def sharded(self, grid):
        from repro.shard import ShardConfig

        return BackboneService(
            grid.copy(), ServiceConfig(sharding=ShardConfig(tile_size=8.0))
        )

    def test_backbone_matches_global_service(self, grid, sharded):
        plain = BackboneService(grid.copy())
        assert (
            sharded.backbone().value.dominators
            == plain.backbone().value.dominators
        )

    def test_tracks_oracle_through_churn(self, grid, sharded):
        from repro.wcds import algorithm2_centralized

        nodes = sorted(grid.positions)
        for step, node in enumerate(nodes[:5]):
            pos = sharded.graph.positions[node]
            sharded.move(node, pos.x + 0.15, pos.y - 0.1 * step)
        result = sharded.backbone()
        assert result.ok and not result.stale
        oracle = algorithm2_centralized(sharded.graph)
        assert result.value.dominators == oracle.dominators

    def test_gentle_churn_keeps_unrelated_cached_routes(self, grid, sharded):
        # Regression: the non-sharded full-rebuild path clears the
        # whole route cache; tile-scoped invalidation must keep a
        # cached route far away from the churn.
        nodes = sorted(grid.positions)
        far_u, far_v = nodes[-1], nodes[-2]
        assert sharded.route(far_u, far_v).ok
        assert sharded.route_cache.get(far_u, far_v) is not None
        corner = nodes[0]
        pos = sharded.graph.positions[corner]
        sharded.move(corner, pos.x + 0.01, pos.y + 0.01)
        # ingest already invalidated tile-locally; the far route is
        # still cached both before and after the refresh absorbs it
        assert sharded.route_cache.get(far_u, far_v) is not None
        sharded.refresh()
        assert sharded.route_cache.get(far_u, far_v) is not None
        hits_before = sharded.metrics.counters.get("route_cache_hits", 0)
        assert sharded.route(far_u, far_v).ok
        assert sharded.metrics.counters["route_cache_hits"] == hits_before + 1

    def test_routes_through_churned_tiles_are_evicted(self, grid, sharded):
        # A topologically-silent move ingests nothing (no link events),
        # so the eviction contract is exercised by a move big enough to
        # flip unit-disk edges around the endpoint.
        nodes = sorted(grid.positions)
        near_u = nodes[0]
        near_v = min(sharded.graph.adjacency(near_u), default=near_u)
        assert sharded.route(near_u, near_v).ok
        assert sharded.route_cache.get(near_u, near_v) is not None
        pos = sharded.graph.positions[near_u]
        sharded.move(near_u, pos.x + 0.6, pos.y + 0.6)
        assert sharded.metrics.counters.get("updates_move", 0) == 1
        assert sharded.route_cache.get(near_u, near_v) is None

    def test_join_and_leave_absorbed_by_restitching(self, grid, sharded):
        from repro.wcds import algorithm2_centralized
        from repro.wcds.base import is_weakly_connected_dominating_set

        newcomer = max(grid.positions) + 1
        sharded.join(newcomer, 1.3, 1.3)
        assert sharded.dominator(newcomer).ok
        assert (
            sharded.backbone().value.dominators
            == algorithm2_centralized(sharded.graph).dominators
        )
        sharded.leave(newcomer)
        result = sharded.backbone()
        assert newcomer not in sharded.graph
        assert is_weakly_connected_dominating_set(
            sharded.graph, result.value.dominators
        )


def _reference_plan(snapshot, source):
    """A broadcast plan that builds the weakly induced spanner afresh."""
    from collections import deque

    from repro.graphs.graph import canonical_order
    from repro.wcds.base import weakly_induced_subgraph

    backbone = set(snapshot.result.dominators)
    spanner = weakly_induced_subgraph(snapshot.graph, backbone)
    heard = {source}
    forwarders = []
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        if not (
            node == source
            or node in backbone
            or any(nbr in backbone and nbr not in heard
                   for nbr in spanner.adjacency(node))
        ):
            continue
        forwarders.append(node)
        for nbr in canonical_order(spanner.adjacency(node)):
            if nbr not in heard:
                heard.add(nbr)
                frontier.append(nbr)
    return {
        "source": source,
        "forwarders": forwarders,
        "transmissions": len(forwarders),
        "covered": len(heard),
        "total": snapshot.graph.num_nodes,
    }
