"""The shard serve pool: shared memory, spawn workers, and churn.

Worker processes are started with the ``spawn`` method (the only one
safe on every platform), so everything crossing the process boundary
must pickle: the position array travels as a shared-memory attach
handle, and configs travel by value.  The pool's answers must be
identical whether tiles are served by in-process replicas or by
workers reconstructing them from the shared rows.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro.geometry.point import Point
from repro.shard import ShardConfig, SharedPositions, ShardServePool
from repro.shard.bench import jittered_grid
from repro.sim.config import SimConfig


def _echo_shared(shared: SharedPositions, config: SimConfig, conn) -> None:
    """Spawn target: read the shared rows and the config by value."""
    try:
        conn.send(
            (
                shared.count,
                [tuple(row) for row in shared.array.tolist()],
                config.seed,
            )
        )
    finally:
        shared.close()
        conn.close()


class TestSharedPositions:
    def test_pickle_round_trip_maps_same_memory(self):
        shared = SharedPositions.create([(1.5, 2.5), (3.25, -1.0)])
        try:
            attached = pickle.loads(pickle.dumps(shared))
            assert attached.count == 2
            assert attached.array[1, 0] == 3.25
            # same memory, not a copy: a write is visible on both sides
            shared.array[0, 1] = 9.0
            assert attached.array[0, 1] == 9.0
            attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_spawn_round_trip_with_sim_config(self):
        # The montecarlo picklability contract, extended to the shard
        # layer: positions and SimConfig must survive a spawn boundary.
        ctx = multiprocessing.get_context("spawn")
        coords = [(0.0, 0.0), (0.5, 0.25), (-1.5, 2.0)]
        shared = SharedPositions.create(coords)
        config = SimConfig(seed=1234)
        parent, child = ctx.Pipe()
        try:
            process = ctx.Process(
                target=_echo_shared, args=(shared, config, child)
            )
            process.start()
            count, rows, seed = parent.recv()
            process.join(timeout=30)
            assert process.exitcode == 0
            assert count == len(coords)
            assert rows == coords
            assert seed == 1234
        finally:
            parent.close()
            child.close()
            shared.close()
            shared.unlink()

    def test_shard_config_pickles_under_spawn_protocol(self):
        config = ShardConfig(tile_size=6.0, workers=2, batch_size=64)
        clone = pickle.loads(
            pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert clone == config


@pytest.fixture(scope="module")
def deployment():
    return jittered_grid(900, seed=7)


def _mixed_queries(pool, count, seed):
    rng = random.Random(seed)
    nodes = sorted(pool.graph.positions)
    queries = []
    for _ in range(count):
        op = ("dominator", "member", "route")[rng.randrange(3)]
        u = nodes[rng.randrange(len(nodes))]
        if op == "route":
            owned = pool.tiler.owned(pool.tiler.owner[u])
            v = owned[rng.randrange(len(owned))]
            queries.append((op, u, v))
        else:
            queries.append((op, u))
    return queries


class TestPoolEquivalence:
    def test_workers_answer_exactly_like_inline(self, deployment):
        inline = ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0, workers=0)
        )
        queries = _mixed_queries(inline, 200, seed=11)
        expected = inline.query_batch(queries)
        inline.close()
        with ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0, workers=2)
        ) as pool:
            assert pool.query_batch(queries) == expected

    def test_convenience_queries(self, deployment):
        with ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0)
        ) as pool:
            node = sorted(deployment.positions)[0]
            dominator = pool.dominator(node)
            assert dominator is not None
            assert pool.backbone_member(dominator)
            path = pool.route(node, node)
            assert path == [node]

    def test_unknown_node_yields_none(self, deployment):
        with ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0)
        ) as pool:
            assert pool.dominator(object()) is None

    def test_unknown_route_target_yields_none_in_both_modes(self):
        # The worker path used to fail the whole batch with a KeyError
        # translating an argument that has no shared-array row.
        graph = jittered_grid(400, 0)
        u = sorted(graph.positions)[0]
        queries = [("route", u, "nope"), ("dominator", u), ("route", u, 10**9)]
        answers = []
        for workers in (0, 1):
            with ShardServePool(
                graph.copy(), ShardConfig(workers=workers)
            ) as pool:
                answers.append(pool.query_batch(queries))
        assert answers[0] == answers[1]
        assert answers[0][0] is None and answers[0][2] is None
        assert answers[0][1] is not None


class TestPoolChurn:
    def test_gentle_interior_churn_is_boundary_only(self, deployment):
        from repro.shard.bench import bench_invalidation

        report = bench_invalidation(
            deployment.copy(), tile_size=8.0, churn_events=8, seed=2
        )
        assert report["churn_events"] > 0
        assert report["tiles_cascaded"] == 0
        assert report["boundary_only"] is True
        # every event stayed within the tiles reading the moved node
        assert report["max_tiles_rebuilt_per_event"] <= 4
        assert report["tiles_rebuilt"] < report["tiles"] * report["churn_events"]

    def test_worker_replicas_refresh_after_move(self, deployment):
        graph = deployment.copy()
        with ShardServePool(
            graph, ShardConfig(tile_size=6.0, workers=2)
        ) as pool:
            queries = _mixed_queries(pool, 120, seed=3)
            rng = random.Random(4)
            nodes = sorted(graph.positions)
            for _ in range(5):
                node = nodes[rng.randrange(len(nodes))]
                pos = graph.positions[node]
                pool.move(
                    node,
                    Point(
                        pos.x + rng.uniform(-0.1, 0.1),
                        pos.y + rng.uniform(-0.1, 0.1),
                    ),
                )
            served = pool.query_batch(queries)
        inline = ShardServePool(graph, ShardConfig(tile_size=6.0, workers=0))
        try:
            assert inline.query_batch(queries) == served
        finally:
            inline.close()

    def test_move_report_lists_rebuilt_tiles(self, deployment):
        graph = deployment.copy()
        with ShardServePool(graph, ShardConfig(tile_size=6.0)) as pool:
            node = sorted(graph.positions)[0]
            pos = graph.positions[node]
            report = pool.move(node, Point(pos.x + 0.02, pos.y + 0.02))
            assert report.event == "move"
            # every still-live seed tile was re-stitched (a seed that
            # lost its last node is retired, not rebuilt)
            live = set(pool.tiler.tiles())
            assert set(report.seed_tiles) & live <= set(report.rebuilt)

    def test_dominator_moving_into_earlier_tile_stays_in_backbone(self):
        # The new tile sorts before the old one, so its contribution is
        # applied first and the old tile's swap-out must not drop it.
        from repro.wcds.base import is_weakly_connected_dominating_set

        graph = jittered_grid(400, seed=7)
        pool = ShardServePool(graph, ShardConfig(tile_size=4.0, workers=0))
        try:
            side = pool.tiler.side
            leftmost = min(tile[0] for tile in pool.tiler.tiles())
            mis = pool.backbone.result().mis_dominators
            node = next(
                v for v in sorted(mis)
                if pool.tiler.owner[v][0] > leftmost
                and graph.positions[v].x - pool.tiler.owner[v][0] * side < 0.3
            )
            old_tile = pool.tiler.owner[node]
            pool.move(
                node, Point(old_tile[0] * side - 0.05, graph.positions[node].y)
            )
            assert pool.tiler.owner[node] < old_tile
            expected = pool.backbone.result()
            assert node in expected.mis_dominators
            assert pool.backbone_nodes() == set(expected.dominators)
            assert is_weakly_connected_dominating_set(graph, pool.backbone_nodes())
            queries = _mixed_queries(pool, 300, seed=5)
            new_tile = pool.tiler.owner[node]
            queries += [("route", node, v) for v in pool.tiler.owned(new_tile)]
            assert all(answer is not None for answer in pool.query_batch(queries))
        finally:
            pool.close()


class TestPoolTelemetry:
    """The cross-process pipeline acceptance criteria: exact harvested
    counters, fully parented stitched traces, crash-triggered dumps."""

    def _pool(self, deployment, registry, workers=2):
        return ShardServePool(
            deployment.copy(),
            ShardConfig(tile_size=6.0, workers=workers, batch_size=64),
            registry=registry,
        )

    def test_merged_counters_exactly_match_worker_side(self, deployment):
        from repro.obs import MetricsRegistry
        from repro.obs.pipeline import state_value

        registry = MetricsRegistry()
        pool = self._pool(deployment, registry)
        queries = _mixed_queries(pool, 300, seed=21)
        pool.query_batch(queries)
        pool.query_batch(queries[:50])
        pool.close()  # absorbs the final frames
        merged = pool.merged_telemetry()
        per_op: dict = {}
        for op, *_ in queries + queries[:50]:
            per_op[op] = per_op.get(op, 0) + 1
        for op, expected in per_op.items():
            fleet = registry.value("worker_serves_total", op=op)
            worker_side = state_value(merged, "worker_serves_total", op=op)
            # exact equality, which trivially satisfies the >=99% bar
            assert fleet == worker_side == expected, op
        split = [
            registry.value("worker_serves_total", op="dominator", worker=w)
            for w in ("w0", "w1")
        ]
        assert sum(split) == per_op["dominator"]
        assert all(value > 0 for value in split)
        assert registry.value("worker_replies_total") == state_value(
            merged, "worker_replies_total"
        ) > 0

    def test_trace_export_fully_parented(self, deployment, tmp_path):
        import json

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = self._pool(deployment, registry)
        pool.query_batch(_mixed_queries(pool, 150, seed=22))
        pool.flush_telemetry()
        pool.close()
        path = tmp_path / "trace.jsonl"
        count = pool.export_trace(str(path))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == count > 0
        span_ids = {r["span_id"] for r in records}
        worker_records = [r for r in records if r["origin"] != "parent"]
        assert worker_records, "worker spans must be harvested"
        for record in records:
            if record["parent_id"] is not None:
                assert record["parent_id"] in span_ids, record
        # every worker span nests under a parent-side dispatch/load span
        for record in worker_records:
            assert record["parent_id"] is not None
            assert record["trace_id"].startswith("parent-")
        assert pool.stitcher.fully_parented()

    def test_worker_crash_dumps_flight_recorder(self, deployment, tmp_path):
        import json

        from repro.faults import FaultPlan
        from repro.faults.plan import Crash
        from repro.graphs import connected_random_udg
        from repro.obs import MetricsRegistry
        from repro.obs.flightrec import FlightRecorder, set_flight_recorder
        from repro.sim.config import SimConfig
        from repro.wcds.algorithm2 import algorithm2_distributed

        dump_path = tmp_path / "flight.json"
        recorder = FlightRecorder(
            process="main", dump_path=str(dump_path),
            dump_on=frozenset({"worker_death"}),
        )
        set_flight_recorder(recorder)
        try:
            # A real fault-plan run first, so the ring holds a genuine
            # fault transition when the crash dump fires.
            sim_graph = connected_random_udg(30, 4.0, seed=3)
            victim = max(sim_graph.nodes())
            algorithm2_distributed(
                sim_graph,
                sim=SimConfig(
                    fault_plan=FaultPlan(crashes=(Crash(time=2.0, node=victim),)),
                    transport=True,
                    seed=3,
                ),
            )
            registry = MetricsRegistry()
            pool = self._pool(deployment, registry)
            try:
                pool.query_batch(_mixed_queries(pool, 80, seed=23))
                pool._workers[0][0].kill()
                pool._workers[0][0].join(timeout=10)
                with pytest.raises(RuntimeError, match="worker w0 died"):
                    for _ in range(50):
                        pool.query_batch(_mixed_queries(pool, 80, seed=24))
            finally:
                # w0 is gone; skip the close handshake and just reap.
                for proc, conn in pool._workers:
                    conn.close()
                    proc.join(timeout=10)
                pool._workers = []
                if pool.shared is not None:
                    pool.shared.close()
                    pool.shared.unlink()
                    pool.shared = None
            assert registry.value("shard_worker_deaths_total") == 1
            artifact = json.loads(dump_path.read_text())
            assert artifact["reason"] == "worker_death"
            kinds = [entry["kind"] for entry in artifact["entries"]]
            assert "worker_death" in kinds
            # the last dispatch span is in the ring...
            dispatches = [
                e for e in artifact["entries"] if e["kind"] == "dispatch"
            ]
            assert dispatches and dispatches[-1]["span_id"].startswith("parent-")
            # ...and so is the fault transition from the sim run
            assert any(e["kind"] == "fault_transition" for e in artifact["entries"])
        finally:
            set_flight_recorder(None)

    def test_no_registry_means_no_telemetry_overheads(self, deployment):
        pool = ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0, workers=2)
        )
        try:
            assert pool.telemetry is False
            assert pool.harvest is None and pool.stitcher is None
            assert pool.query_batch([("member", sorted(
                deployment.positions)[0])]) is not None
        finally:
            pool.close()
