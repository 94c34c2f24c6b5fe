"""Tests for the backbone service runtime: requests, caches, metrics,
freshness/staleness, maintenance by the one exact engine, and workload
replay."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import connected_random_udg
from repro.graphs.traversal import is_connected
from repro.mobility import RandomWaypointModel
from repro.obs import Histogram
from repro.obs.slo import SLO
from repro.service import (
    BackboneService,
    Request,
    RequestQueue,
    Response,
    RouteCache,
    ServiceConfig,
    ServiceMetrics,
    WorkloadConfig,
    WorkloadGenerator,
    load_trace,
    replay,
    save_trace,
    zipf_weights,
)
from repro.wcds import algorithm2_centralized
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

    _NODE = st.integers(0, 5)
    _OPS = st.lists(
        st.one_of(
            st.tuples(st.just("put"), _NODE, _NODE, st.lists(_NODE, max_size=3)),
            st.tuples(st.just("get"), _NODE, _NODE),
            st.tuples(st.just("invalidate"), st.lists(_NODE, max_size=3)),
        ),
        max_size=40,
    )

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 4), ops=_OPS)
    def test_index_is_the_inverse_of_the_paths(self, capacity, ops):
        # Few nodes and a small capacity: overwrites, reverse hits and
        # over-capacity evictions are common.
        cache = RouteCache(capacity=capacity)
        for op, *args in ops:
            if op == "put":
                src, dst, middle = args
                cache.put(src, dst, [src, *middle, dst])
            elif op == "get":
                cache.get(*args)
            else:
                cache.invalidate_nodes(args[0])
            inverse = {}
            for key, path in cache._paths.items():
                for node in path:
                    inverse.setdefault(node, set()).add(key)
            assert cache._by_node == inverse
            assert len(cache) <= capacity


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_quantiles_ordered(self):
        histogram = Histogram()
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
        histogram = Histogram()
        assert histogram.quantile(0.99) == 0.0 and histogram.mean == 0.0

    def test_hit_rate(self):
        metrics = ServiceMetrics()
        metrics.incr("route_cache_hits", 3)
        metrics.incr("route_cache_misses", 1)
        assert metrics.hit_rate("route_cache") == 0.75

    def test_counter_get_returns_a_counter_at_zero(self):
        metrics = ServiceMetrics()
        metrics.incr("errors", 0)  # exists, still at 0
        assert "errors" in metrics.counters
        assert metrics.counters.get("errors", 7) == 0
        assert metrics.counters.get("missing", 7) == 7

    def test_snapshot_is_json_ready(self):
        metrics = ServiceMetrics()
        metrics.incr("requests_total")
        metrics.observe("route", 0.002)
        snapshot = json.loads(metrics.to_json())
        assert snapshot["counters"]["requests_total"] == 1
        assert snapshot["latency_seconds"]["route"]["count"] == 1

    def test_refresh_phases_read_the_injected_clock(self, network, monkeypatch):
        # A fake clock that steps only inside each phase: noting a node
        # takes 0.25 s, copying the graph 0.5 s, numbering the copy 1 s
        # and building the router 2 s, so the phase histograms must read
        # exactly that.
        import repro.graphs.graph as graph_module
        import repro.service.service as service_module

        now = {"t": 0.0}

        def stepping(step, call):
            def timed(*args, **kwargs):
                now["t"] += step
                return call(*args, **kwargs)
            return timed

        monkeypatch.setattr(
            service_module, "ClusterheadRouter",
            stepping(2.0, service_module.ClusterheadRouter),
        )
        # Only a numbering that is not cached yet costs time, so the
        # router's own numbering() read is free.
        monkeypatch.setattr(
            graph_module.Numbering, "of",
            staticmethod(stepping(1.0, graph_module.Numbering.of)),
        )
        service = BackboneService(network, clock=lambda: now["t"])
        service._build_cost.value = 1e9  # always note, never rebuild
        monkeypatch.setattr(service, "_note", stepping(0.25, service._note))
        monkeypatch.setattr(service.graph, "copy", stepping(0.5, service.graph.copy))
        moved = []
        for node in (0, 17, 42):
            pos = service.graph.positions[node]
            service.move(node, pos.x + 0.2, pos.y)
            service.refresh()
            moved.append(service.metrics.counters["repairs"])
        phases = {
            dict(key)["phase"]: histogram
            for key, histogram in service.metrics.registry.children(
                "refresh_phase_seconds"
            ).items()
        }
        assert set(phases) == {"absorb", "graph_copy", "numbering", "router_build"}
        absorb = phases["absorb"]
        assert absorb.count == 3
        assert absorb.total == pytest.approx(0.25 * moved[-1])
        assert absorb.max == pytest.approx(
            0.25 * max(b - a for a, b in zip([0] + moved, moved))
        )
        # The initial freeze is timed too, untouched by the copy patch.
        assert phases["graph_copy"].count == 4
        assert phases["graph_copy"].total == pytest.approx(3 * 0.5)
        assert phases["numbering"].count == 4
        assert phases["numbering"].min == phases["numbering"].max == 1.0
        assert phases["router_build"].count == 4
        assert phases["router_build"].min == phases["router_build"].max == 2.0


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

    def test_cached_routes_stay_walkable_after_repairs(self):
        # Tile-scoped invalidation must evict every route a re-stitch
        # can break: what survives in the cache walks the refreshed
        # snapshot.  A deployment several halos wide and small tiles,
        # so that the routes outside the re-stitched tiles stay cached;
        # a constant clock keeps every refresh on the note path.
        from repro.graphs import jittered_grid

        network = jittered_grid(900, seed=5)
        service = BackboneService(
            network, ServiceConfig(tile_size=2.0), clock=lambda: 0.0
        )
        rng = random.Random(2)
        nodes = sorted(network.nodes())
        checked = 0
        for _ in range(8):
            for src in nodes[::30]:
                for dst in nodes[4::39]:
                    service.route(src, dst)
            for _ in range(3):
                node = rng.choice(nodes)
                pos = service.graph.positions[node]
                service.move(node, pos.x + rng.uniform(-0.3, 0.3),
                             pos.y + rng.uniform(-0.3, 0.3))
            service.refresh()
            router = service._snapshot.router
            for path in service.route_cache._paths.values():
                router.validate_path(list(path))
                checked += 1
        assert service.metrics.counters["rebuilds_full"] == 0
        assert service.metrics.counters["errors"] == 0
        assert checked > 100

    def test_gentle_churn_repairs_without_rebuild(self, network):
        # While noting the moved nodes is measured cheaper than a
        # build, every refresh notes them, and each absorbed backbone
        # is Algorithm II's.  The costs are pinned on a constant clock.
        service = BackboneService(network, clock=lambda: 0.0)
        service._build_cost.value = 1.0
        service._note_cost.value = 1e-4
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.005, 0.02), seed=9
        )
        for _ in range(10):
            service.ingest_events(mobility.step())
            backbone = service.backbone().value
            assert backbone.dominators == (
                algorithm2_centralized(service.graph).dominators
            )
        counters = service.metrics.counters
        assert counters["rebuilds_full"] == 0
        assert counters["repairs"] > 0

    def test_heavy_churn_triggers_full_rebuild(self, network, service):
        # A waypoint step moves every node: noting all of them is
        # estimated far dearer than one build, so the step is absorbed
        # by one re-construction, whose backbone is Algorithm II's.
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.4, 0.8), seed=9
        )
        for step in range(1, 4):
            service.ingest_events(mobility.step())
            backbone = service.backbone().value
            assert service.metrics.counters["rebuilds_full"] == step
            assert backbone.dominators == (
                algorithm2_centralized(service.graph).dominators
            )
        assert service.metrics.counters["repairs"] == 0
        assert not service.has_pending_work

    def test_rebuild_keeps_routes_outside_changed_tiles(self):
        # A re-construction evicts only the cached routes through tiles
        # whose backbone changed; what survives walks the new snapshot.
        from repro.graphs import jittered_grid

        network = jittered_grid(900, seed=5)
        service = BackboneService(
            network, ServiceConfig(tile_size=2.0), clock=lambda: 0.0
        )
        service._note_cost.value = 1.0  # notes always dearer than a build
        rng = random.Random(2)
        nodes = sorted(network.nodes())
        checked = 0
        for _ in range(8):
            for src in nodes[::30]:
                for dst in nodes[4::39]:
                    service.route(src, dst)
            for _ in range(3):
                node = rng.choice(nodes)
                pos = service.graph.positions[node]
                service.move(node, pos.x + rng.uniform(-0.3, 0.3),
                             pos.y + rng.uniform(-0.3, 0.3))
            service.refresh()
            router = service._snapshot.router
            for path in service.route_cache._paths.values():
                router.validate_path(list(path))
                checked += 1
        assert service.metrics.counters["rebuilds_full"] == 8
        assert service.metrics.counters["errors"] == 0
        assert checked > 100


class TestStaleness:
    def _slow_service(self, network):
        # Virtual clock: freshness decisions use the EWMA cost estimates,
        # which we pin high so any finite deadline forces a stale serve.
        clock = {"now": 0.0}
        service = BackboneService(network, clock=lambda: clock["now"])
        service._build_cost.value = 10.0
        service._note_cost.value = 10.0
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

    def test_stale_plans_are_cached_on_the_last_good_snapshot(self, network):
        service = self._slow_service(network)
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=1
        )
        service.ingest_events(mobility.step())
        last_good = service._snapshot
        first = service.broadcast_plan(0, deadline=0.001)
        again = service.broadcast_plan(0, deadline=0.001)
        assert first.stale and again.stale
        assert again.value is first.value
        assert first.value == _reference_plan(last_good, 0)
        counters = service.metrics.counters
        assert counters["plan_cache_misses"] == 1
        assert counters["plan_cache_hits"] == 1
        service.refresh()
        assert service._snapshot is not last_good
        fresh = service.broadcast_plan(0, deadline=0.001)
        assert not fresh.stale and fresh.value is not first.value
        assert fresh.value == _reference_plan(service._snapshot, 0)
        assert counters["plan_cache_misses"] == 2

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
        service._build_cost.value = 10.0
        service._note_cost.value = 10.0
        mobility = RandomWaypointModel(
            network, 5.0, speed_range=(0.01, 0.02), seed=1
        )
        service.ingest_events(mobility.step())
        assert service.backbone().stale

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), float("inf")])
    def test_default_deadline_must_be_positive_and_finite(self, deadline):
        with pytest.raises(ValueError, match="default_deadline"):
            ServiceConfig(default_deadline=deadline)
        assert ServiceConfig(default_deadline=0.5).default_deadline == 0.5


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
        for tile_size in (0.0, -1.0):
            with pytest.raises(ValueError):
                ServiceConfig(tile_size=tile_size)


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
# Tiled maintenance (ServiceConfig.tile_size)
# ----------------------------------------------------------------------
class TestShardedService:
    """The backbone is maintained by frontier re-stitching and route
    invalidation is scoped to the tiles reading the touched nodes —
    gentle churn must not evict unrelated cached routes, and there is
    no whole-cache ``clear()`` path at all."""

    @pytest.fixture()
    def grid(self):
        from repro.graphs import jittered_grid

        return jittered_grid(900, seed=4)

    @pytest.fixture()
    def sharded(self, grid):
        return BackboneService(grid.copy(), ServiceConfig(tile_size=8.0))

    def test_backbone_matches_global_service(self, grid, sharded):
        backbone = sharded.backbone().value
        oracle = algorithm2_centralized(grid)
        assert backbone.dominators == oracle.dominators
        assert backbone.mis_dominators == oracle.mis_dominators

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
        # Regression: tile-scoped invalidation must keep a cached
        # route far away from the churn.
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

    def test_silent_move_re_tiles_the_node(self):
        # Regression: a move that flips no link queued nothing, so the
        # tiler kept owning node 0 by the tile it had left.
        from repro.graphs import jittered_grid

        config = ServiceConfig(tile_size=4.0)
        service = BackboneService(jittered_grid(900, seed=3), config)
        tiler = service._backbone.tiler
        assert tiler.owner[0] == (-1, 0)
        pos = service.graph.positions[0]
        service.move(0, pos.x + 0.03, pos.y)
        service.refresh()
        assert tiler.owner[0] == (0, 0) == tiler.tile_of(service.graph.positions[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiler_follows_every_move(self, seed):
        from repro.graphs import jittered_grid

        config = ServiceConfig(tile_size=3.5)
        service = BackboneService(jittered_grid(400, seed), config)
        graph = service.graph
        rng = random.Random(seed)
        nodes = sorted(graph.positions)
        for _ in range(12):
            for _ in range(rng.randint(1, 3)):
                node = rng.choice(nodes)
                pos = graph.positions[node]
                service.move(node, pos.x + rng.uniform(-0.1, 0.1),
                             pos.y + rng.uniform(-0.1, 0.1))
            service.refresh()
            # Read after the refresh: when noting would cost more than a
            # build (measured, so timing decides), it re-constructs the
            # backbone and its tiler.
            tiler = service._backbone.tiler
            assert all(
                tiler.owner[node] == tiler.tile_of(pos)
                for node, pos in graph.positions.items()
            )
            assert (
                service.backbone().value.dominators
                == algorithm2_centralized(graph).dominators
            )

    def test_routes_through_churned_tiles_are_evicted(self, grid, sharded):
        # A topologically-silent move only re-tiles the node, so the
        # eviction contract is exercised by a move big enough to flip
        # unit-disk edges around the endpoint.
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

    @pytest.mark.parametrize("tile_size", [3.5, 8.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_external_mover_keeps_tiler_and_oracle(self, seed, tile_size):
        # Regression: ``ingest_events`` learnt only link events, so a
        # waypoint step left the nodes it moved without a link flip
        # owned by the tile they had left (and raised KeyError at seed
        # 1, tile 3.5).  A step moves every node, so the measured rule
        # re-constructs.
        service = _waypoint_service(seed, tile_size, steps=10)
        assert service.metrics.counters["rebuilds_full"] == 10

    @pytest.mark.parametrize("seed,tile_size", [(1, 3.5), (0, 8.0)])
    def test_external_mover_noted_node_by_node(self, seed, tile_size):
        # The same steps noted node by node (a constant clock measures
        # notes as free): a node that owns its tile alone and stays in
        # it must not have the tile's halo re-collected around nodes
        # moved but not yet noted.
        service = _waypoint_service(seed, tile_size, steps=2, clock=lambda: 0.0)
        assert service.metrics.counters["rebuilds_full"] == 0


def _waypoint_service(seed, tile_size, steps, **kwargs):
    """A service on ``jittered_grid(400, seed)`` after ``steps``
    random-waypoint steps fed through ``ingest_events``, checked after
    every refresh: no error, every node owned by the tile of its
    position, and Algorithm II's backbone on a connected snapshot."""
    from repro.graphs import jittered_grid

    graph = jittered_grid(400, seed)
    side = max(max(p.x, p.y) for p in graph.positions.values())
    service = BackboneService(graph, ServiceConfig(tile_size=tile_size), **kwargs)
    mobility = RandomWaypointModel(
        graph, side, speed_range=(0.01, 0.05), seed=seed
    )
    for _ in range(steps):
        service.ingest_events(mobility.step())
        response = service.backbone()
        assert response.ok and not response.stale, response.error
        tiler = service._backbone.tiler
        assert all(
            tiler.owner[node] == tiler.tile_of(pos)
            for node, pos in graph.positions.items()
        )
        if is_connected(graph):
            assert response.value.dominators == (
                algorithm2_centralized(graph).dominators
            )
    return service


class TestOneEngine:
    """Whichever way a refresh absorbs the pending nodes — noting each,
    or re-constructing because the measured costs say so — the backbone
    served fresh is Algorithm II's on every connected snapshot."""

    @pytest.mark.parametrize("absorb", ["notes", "rebuild", "measured"])
    @pytest.mark.parametrize("tile_size", [8.0, 3.0])  # one tile, 4 tiles
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_stream_serves_algorithm2(self, seed, tile_size, absorb):
        graph = connected_random_udg(60, 5.0, seed=seed)
        if absorb == "measured":
            service = BackboneService(graph, ServiceConfig(tile_size=tile_size))
        else:
            service = BackboneService(
                graph, ServiceConfig(tile_size=tile_size), clock=lambda: 0.0
            )
            if absorb == "rebuild":
                service._note_cost.value = 1.0
        tiles = len(service._backbone.tiler.tiles())
        assert (tiles == 1) == (tile_size == 8.0)
        rng = random.Random(seed)
        fresh_id = 1000
        checked = rebuildable = 0
        for _ in range(24):
            for _ in range(rng.randint(1, 3)):
                nodes = sorted(service.graph.nodes())
                op = rng.choice(("move", "move", "join", "leave", "waypoint"))
                if op == "move":
                    node = rng.choice(nodes)
                    pos = service.graph.positions[node]
                    service.move(node, pos.x + rng.uniform(-0.4, 0.4),
                                 pos.y + rng.uniform(-0.4, 0.4))
                elif op == "join":
                    service.join(fresh_id, rng.uniform(0, 5), rng.uniform(0, 5))
                    fresh_id += 1
                elif op == "leave" and len(nodes) > 40:
                    service.leave(rng.choice(nodes))
                elif op == "waypoint":
                    mover = RandomWaypointModel(
                        service.graph, 5.0, speed_range=(0.05, 0.3),
                        seed=rng.randrange(2**32),
                    )
                    service.ingest_events(mover.step())
            moved = bool(service._pending)  # not only departures
            response = service.backbone()
            assert response.ok and not response.stale
            snapshot = service._snapshot.graph
            if is_connected(snapshot):
                oracle = algorithm2_centralized(snapshot)
                assert response.value.dominators == oracle.dominators
                assert response.value.mis_dominators == oracle.mis_dominators
                checked += 1
                rebuildable += moved
        assert checked >= 16
        counters = service.metrics.counters
        if absorb == "notes":
            assert counters["rebuilds_full"] == 0
        elif absorb == "rebuild":
            assert counters["rebuilds_full"] == rebuildable > 0


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


class TestRequestPathBookkeeping:
    def test_warm_queries_reuse_handles_and_build_one_response(
        self, network, service, monkeypatch
    ):
        from repro.obs.registry import MetricsRegistry

        nodes = sorted(network.nodes())
        src, dst = nodes[0], nodes[-1]
        queries = [
            Request(op="backbone"),
            Request(op="dominator", node=src),
            Request(op="route", src=src, dst=dst),
            Request(op="route", src=dst, dst=src),  # a reverse hit
            Request(op="broadcast_plan", source=src),
        ]
        # Warm-up: every counter and latency child a query touches,
        # cache misses and hits.
        for request in queries + queries:
            service.submit(request)
        # Route and plan misses after the warm-up.
        queries += [Request(op="route", src=src, dst=node) for node in nodes[1:6]]
        queries += [Request(op="broadcast_plan", source=node) for node in nodes[1:3]]

        calls = {"child": 0, "response": 0}
        child, init = MetricsRegistry._child, Response.__init__

        def counted_child(self, *args):
            calls["child"] += 1
            return child(self, *args)

        def counted_init(self, *args, **kwargs):
            calls["response"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_child", counted_child)
        monkeypatch.setattr(Response, "__init__", counted_init)
        responses = [service.submit(request) for _ in range(3) for request in queries]
        assert calls == {"child": 0, "response": len(responses)}
        assert all(response.ok and not response.stale for response in responses)
        assert all(response.elapsed > 0 for response in responses)
        counters = service.metrics.counters
        assert counters["route_cache_misses"] == 1 + 5
        assert counters["plan_cache_misses"] == 1 + 2

    def test_warm_scored_queries_reuse_slo_handles(self, network, monkeypatch):
        from repro.obs.registry import MetricsRegistry

        slos = (
            SLO(name="any", threshold=60.0, target=0.9),
            SLO(name="routes", kind="availability", op="route", target=0.9),
        )
        service = BackboneService(network, ServiceConfig(slos=slos))
        nodes = sorted(network.nodes())
        # Good and bad (unknown-node errors) requests of both objectives;
        # the warm-up also fills the route cache.
        queries = [
            Request(op="backbone"),
            Request(op="route", src=nodes[0], dst=nodes[-1]),
            Request(op="dominator", node="nowhere"),
            Request(op="route", src=nodes[0], dst="nowhere"),
        ]
        for request in queries + queries:
            service.submit(request)

        calls = {"child": 0}
        child = MetricsRegistry._child

        def counted_child(self, *args):
            calls["child"] += 1
            return child(self, *args)

        monkeypatch.setattr(MetricsRegistry, "_child", counted_child)
        for _ in range(3):
            for request in queries:
                service.submit(request)
        assert calls == {"child": 0}
        scored = service.metrics.registry.children("slo_requests_total")
        assert {
            (dict(key)["slo"], dict(key)["good"]): counter.value
            for key, counter in scored.items()
        } == {
            ("any", "true"): 10.0, ("any", "false"): 10.0,
            ("routes", "true"): 5.0, ("routes", "false"): 5.0,
        }


# ----------------------------------------------------------------------
# Recorded counters
# ----------------------------------------------------------------------
def _recorded_stream(network, slos=()):
    """A fixed, seeded stream through every ``submit`` branch: queued
    queries under churn and a deadline (rejections, stale serves,
    deadline misses, notes and re-constructions), unknown nodes, a
    refused ``churn``, updates, and a partition.  The clock ticks a
    fixed step per read, so every freshness decision repeats; ``slos``
    score every request."""
    from itertools import count

    from repro.faults import Crash, Partition

    ticks = count()
    service = BackboneService(
        network,
        ServiceConfig(queue_capacity=8, slos=slos),
        clock=lambda: next(ticks) * 1e-4,
    )
    mobility = RandomWaypointModel(network, 5.0, speed_range=(0.005, 0.02), seed=2)
    generator = WorkloadGenerator(
        sorted(network.nodes()),
        WorkloadConfig(queries=400, churn_every=50, deadline=4e-4, seed=7),
    )
    replay(service, generator.requests(), mobility=mobility)
    victim = max(network.nodes())
    for request in (
        Request(op="dominator", node="nowhere"),
        Request(op="route", src=0, dst="nowhere"),
        Request(op="broadcast_plan", source="nowhere"),
        Request(op="churn"),
        Request(op="join", node="new", x=2.0, y=2.0),
        Request(op="move", node="new", x=2.2, y=2.1),
        Request(op="route", src="new", dst=0),
        Request(op="leave", node="new"),
        Request(op="route", src=0, dst=victim),
    ):
        service.submit(request)
    partition = Partition(3.0, 12.0, frozenset({0, 1}))
    service.fault_signal(partition)
    service.fault_signal(Crash(5.0, victim))
    service.dominator(0)
    service.route(1, 2)
    service.heal_signal(partition)
    service.broadcast_plan(0)
    return service


class TestRecordedStream:
    """Counter values and per-operation latency counts of one stream,
    recorded before the request path bound its metric handles: binding
    them must not change what is counted."""

    COUNTERS = {
        "deadline_misses": 2, "degraded_serves": 2, "errors": 2,
        "fault_crashes": 1, "fault_heals": 1, "fault_partitions": 1,
        "link_events": 75, "plan_cache_hits": 13, "plan_cache_misses": 29,
        "rebuilds_full": 3, "repairs": 2, "req_backbone": 18,
        "req_broadcast_plan": 43, "req_churn": 1, "req_dominator": 85,
        "req_join": 1, "req_leave": 1, "req_move": 1, "req_route": 262,
        "requests_rejected": 48, "requests_total": 412, "route_cache_hits": 20,
        "route_cache_invalidated": 77, "route_cache_misses": 242,
        "stale_served": 252, "updates_join": 1, "updates_leave": 2,
        "updates_move": 8, "updates_total": 11,
    }
    LATENCY_COUNTS = {
        "backbone": 18, "broadcast_plan": 43, "churn": 1, "dominator": 85,
        "join": 1, "leave": 1, "move": 1, "route": 262,
    }
    #: Non-empty buckets (index: samples) of each latency histogram.
    LATENCY_BUCKETS = {
        "backbone": {7: 18}, "broadcast_plan": {7: 41, 10: 2}, "churn": {7: 1},
        "dominator": {7: 84, 10: 1}, "join": {7: 1}, "leave": {7: 1},
        "move": {7: 1}, "route": {7: 259, 9: 1, 10: 2},
    }
    PHASE_BUCKETS = {
        "absorb": {8: 2, 9: 3}, "graph_copy": {7: 6}, "numbering": {7: 6},
        "router_build": {7: 6},
    }

    #: ``slo_requests_total`` by (slo, good) when :data:`SCORED_SLOS`
    #: score the stream, recorded before the SLO monitor bound its
    #: handles.
    SLO_COUNTS = {
        ("fast", "true"): 403.0, ("fast", "false"): 9.0,
        ("routes", "true"): 259.0, ("routes", "false"): 3.0,
    }
    #: A latency bound the tick clock splits, and an availability
    #: objective on routes only.
    SCORED_SLOS = (
        SLO(name="fast", threshold=2.5e-4, target=0.9),
        SLO(name="routes", kind="availability", op="route", target=0.99),
    )

    def test_counters_and_latency_counts(self, network):
        metrics = _recorded_stream(network).metrics
        assert dict(metrics.counters.items()) == self.COUNTERS
        assert {
            op: histogram.count for op, histogram in metrics.latency.items()
        } == self.LATENCY_COUNTS

    def test_histogram_buckets(self, network):
        from repro.service.metrics import PHASE_FAMILY

        def filled(histogram):
            return {i: count for i, count in enumerate(histogram.counts) if count}

        metrics = _recorded_stream(network).metrics
        assert {
            op: filled(histogram) for op, histogram in metrics.latency.items()
        } == self.LATENCY_BUCKETS
        phases = metrics.registry.children(PHASE_FAMILY)
        assert {
            dict(key)["phase"]: filled(histogram) for key, histogram in phases.items()
        } == self.PHASE_BUCKETS

    def test_scored_counters(self, network):
        metrics = _recorded_stream(network, self.SCORED_SLOS).metrics
        assert dict(metrics.counters.items()) == self.COUNTERS
        scored = metrics.registry.children("slo_requests_total")
        assert {
            (dict(key)["slo"], dict(key)["good"]): counter.value
            for key, counter in scored.items()
        } == self.SLO_COUNTS
