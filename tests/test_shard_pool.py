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
from repro.graphs import jittered_grid
from repro.shard import ShardConfig, SharedPositions, ShardServePool
from repro.sim.config import SimConfig

from tutils import gentle_moves


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
        # The fleet's picklability contract, extended to the shard
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
        with ShardServePool(
            deployment.copy(), ShardConfig(tile_size=8.0, workers=0)
        ) as pool:
            tiles = len(pool.tiler.tiles())
            rebuilt = []
            for node, target in gentle_moves(pool.graph, pool.tiler, 8, seed=2):
                before = pool.graph.neighbors(node)
                report = pool.move(node, target)
                assert pool.graph.neighbors(node) == before
                # every event stays within the tiles reading the node
                assert report.cascaded == ()
                rebuilt.append(len(report.rebuilt))
        assert max(rebuilt) <= 4
        assert sum(rebuilt) < tiles * len(rebuilt)

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
        # The new tile sorts before the old one: the hand-over between
        # owners must keep the node in the backbone the pool serves,
        # compared with a backbone built fresh on a copy of the graph.
        from repro.shard import ShardedBackbone
        from repro.wcds.base import is_weakly_connected_dominating_set

        graph = jittered_grid(400, seed=7)
        config = ShardConfig(tile_size=4.0, workers=0)
        pool = ShardServePool(graph, config)
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
            expected = ShardedBackbone(graph.copy(), config).result()
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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_merged_counters_exactly_match_worker_side(self, deployment, workers):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = self._pool(deployment, registry, workers)
        queries = _mixed_queries(pool, 300, seed=21)
        pool.query_batch(queries)
        pool.query_batch(queries[:50])
        pool.close()  # absorbs the final frames
        labels = pool.group.labels
        per_op: dict = {}
        for op, *_ in queries + queries[:50]:
            per_op[op] = per_op.get(op, 0) + 1
        for op, expected in per_op.items():
            fleet = registry.value("worker_serves_total", op=op)
            split = [
                registry.value("worker_serves_total", op=op, worker=w)
                for w in labels
            ]
            # exact equality, which trivially satisfies the >=99% bar
            assert fleet == sum(split) == expected, op
        if workers == 2:
            split = [
                registry.value("worker_serves_total", op="dominator", worker=w)
                for w in labels
            ]
            assert all(value > 0 for value in split)
        replies = registry.value("worker_replies_total")
        assert replies == sum(
            registry.value("worker_replies_total", worker=w) for w in labels
        ) > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_trace_export_fully_parented(self, deployment, tmp_path, workers):
        import json

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = self._pool(deployment, registry, workers)
        pool.query_batch(_mixed_queries(pool, 150, seed=22))
        node = sorted(deployment.positions)[0]
        pos = pool.graph.positions[node]
        pool.move(node, Point(pos.x + 0.3, pos.y + 0.3))
        pool.flush_telemetry()
        pool.close()
        path = tmp_path / "trace.jsonl"
        pool.export_trace(str(path))
        count = pool.export_trace(str(path))  # a fresh file, not appended
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
        # every worker span nests under a parent-side dispatch/refresh span
        for record in worker_records:
            assert record["parent_id"] is not None
            assert record["trace_id"].startswith("parent-")
        by_id = {r["span_id"]: r for r in records}
        refreshed = {r["name"] for r in worker_records
                     if by_id[r["parent_id"]]["name"] == "shard.refresh"}
        assert refreshed == {"shard.replica_load", "shard.replica_patch"}
        dispatched = {r["name"] for r in worker_records
                      if by_id[r["parent_id"]]["name"] == "shard.dispatch"}
        assert dispatched == {"shard.serve_batch"}
        assert registry.value("worker_replica_patches_total") > 0
        assert pool.stitcher.fully_parented()

    def test_stitched_trace_stays_bounded(self, tmp_path):
        # A long-lived pool keeps only its most recent whole traces.
        from repro.obs import MetricsRegistry
        from repro.obs.pipeline import MAX_TRACE_RECORDS

        with ShardServePool(
            jittered_grid(400, 0), ShardConfig(workers=0, batch_size=8),
            registry=MetricsRegistry(),
        ) as pool:
            queries = _mixed_queries(pool, 32, seed=25)
            for _ in range(1000):
                pool.query_batch(queries)
            records = pool.stitcher.records
            assert len(records) <= MAX_TRACE_RECORDS
            assert "parent-t1" not in {r["trace_id"] for r in records}
            assert pool.stitcher.fully_parented()
            path = tmp_path / "trace.jsonl"
            count = pool.export_trace(str(path))
        assert count == len(path.read_text().splitlines()) > 0

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
                pool.group.processes[0].kill()
                pool.group.processes[0].join(timeout=10)
                with pytest.raises(RuntimeError, match="worker w0 died"):
                    for _ in range(50):
                        pool.query_batch(_mixed_queries(pool, 80, seed=24))
            finally:
                pool.close()
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


class TestWorkerLifecycle:
    def test_calls_after_a_death_fail_closed(self, deployment):
        pool = ShardServePool(
            deployment.copy(), ShardConfig(tile_size=6.0, workers=2, batch_size=8)
        )
        name = pool.group.shared.name
        try:
            on_w0 = [
                q for q in _mixed_queries(pool, 200, seed=31)
                if pool._worker_of[pool.tiler.owner[q[1]]] == 0
            ]
            pool.group.processes[1].kill()
            pool.group.processes[1].join(timeout=10)
            with pytest.raises(RuntimeError, match="worker w1 died"):
                pool.query_batch(_mixed_queries(pool, 200, seed=32))
            # w0 may still owe replies to the failed batch; a batch only
            # w0 serves must not read them as its answers.
            with pytest.raises(RuntimeError, match="worker w1 died"):
                pool.query_batch(on_w0)
        finally:
            pool.close()
        assert pool.group.processes == []
        with pytest.raises(FileNotFoundError):
            SharedPositions.attach(name, 1)

    @pytest.mark.parametrize("stage", ["spawn", "load"])
    def test_failed_start_stops_workers_and_unlinks_segment(
        self, deployment, monkeypatch, stage
    ):
        from multiprocessing.context import SpawnProcess

        created = []
        create = SharedPositions.create.__func__

        def recording_create(cls, coords):
            shared = create(cls, coords)
            created.append(shared.name)
            return shared

        started = []
        start = SpawnProcess.start

        def failing_start(process):
            if stage == "spawn" and started:
                raise OSError("injected start failure")
            start(process)
            started.append(process)

        def failing_refresh(pool, tiles, *args):
            raise OSError("injected start failure")

        monkeypatch.setattr(SharedPositions, "create", classmethod(recording_create))
        monkeypatch.setattr(SpawnProcess, "start", failing_start)
        if stage == "load":
            monkeypatch.setattr(ShardServePool, "_refresh", failing_refresh)
        with pytest.raises(OSError, match="injected"):
            ShardServePool(
                deployment.copy(), ShardConfig(tile_size=6.0, workers=2)
            )
        assert started and all(p.exitcode is not None for p in started)
        (name,) = created
        with pytest.raises(FileNotFoundError):
            SharedPositions.attach(name, 1)
