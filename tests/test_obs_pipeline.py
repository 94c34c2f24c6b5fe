"""Cross-process telemetry pipeline: harvest and trace stitching.

Frames arrive from any number of workers, each carrying its worker's
cumulative metric state: the harvest must fold them into the parent
registry so that its fleet children are exact totals and its
``worker=`` children the per-worker split.  Spans come from one
``Tracer(origin)`` per process and must stitch into one fully parented
trace.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs.pipeline import (
    TelemetryFrame,
    TelemetryHarvest,
    TraceStitcher,
    snapshot_state,
)
from repro.obs.registry import DEFAULT_LOWEST, MetricsRegistry
from repro.obs.tracing import TraceContext, Tracer


def _absorb_all(*workers):
    """A parent registry after harvesting one frame per worker registry."""
    parent = MetricsRegistry()
    harvest = TelemetryHarvest(parent)
    for i, registry in enumerate(workers):
        assert harvest.absorb(TelemetryFrame.capture(f"w{i}", 1, registry))
    return parent


class TestMergeLaws:
    """How the harvest folds several workers' frames into the fleet
    children of the parent registry."""

    def test_counters_add(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("c", op="x").inc(3)
        r2.counter("c", op="x").inc(4)
        r2.counter("c", op="y").inc(1)
        parent = _absorb_all(r1, r2)
        assert parent.value("c", op="x") == 7
        assert parent.value("c", op="y") == 1
        assert parent.value("c", op="x", worker="w0") == 3

    def test_histograms_add_bucketwise_including_overflow(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        h1, h2 = r1.histogram("h"), r2.histogram("h")
        overflow = DEFAULT_LOWEST * 2.0**40 * 8
        h1.observe(0.001)
        h1.observe(overflow)
        h2.observe(0.002)
        h2.observe(overflow)
        fleet = _absorb_all(r1, r2).histogram("h")
        assert fleet.count == 4
        assert fleet.counts[-1] == 2  # both overflow samples kept
        assert fleet.max == overflow
        assert fleet.min == 0.001

    def test_kind_conflict_raises(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("m").inc()
        r2.gauge("m").set(1)
        with pytest.raises(ValueError):
            _absorb_all(r1, r2)

    def test_histogram_geometry_mismatch_raises(self):
        worker = MetricsRegistry()
        worker.histogram("h").observe(1.0)
        frame = TelemetryFrame.capture("w0", 1, worker)
        frame.metrics["families"]["h"]["children"][0][1]["factor"] = 3.0
        parent = MetricsRegistry()
        parent.histogram("h")
        with pytest.raises(ValueError, match="geometry"):
            TelemetryHarvest(parent).absorb(frame)


class TestTelemetryFrame:
    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("worker_serves_total", op="route").inc(5)
        registry.histogram("lat").observe(0.01)
        tracer = Tracer("w0")
        with tracer.span("shard.serve_batch", items=3):
            pass
        frame = TelemetryFrame.capture("w0", 1, registry, spans=tracer.drain())
        clone = pickle.loads(pickle.dumps(frame))
        assert clone.worker == "w0" and clone.seq == 1
        assert clone.metrics == frame.metrics == snapshot_state(registry)
        assert clone.spans[0]["name"] == "shard.serve_batch"


class TestTelemetryHarvest:
    def _frame(self, worker, seq, serves):
        registry = MetricsRegistry()
        registry.counter("worker_serves_total", op="route").inc(serves)
        return TelemetryFrame.capture(worker, seq, registry)

    def test_deltas_not_double_counted(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        # Cumulative frames: 3 then 5 total — parent must see 5, not 8.
        assert harvest.absorb(self._frame("w0", 1, 3))
        assert harvest.absorb(self._frame("w0", 2, 5))
        assert parent.value("worker_serves_total", op="route") == 5
        assert parent.value("worker_serves_total", op="route", worker="w0") == 5

    def test_multiple_workers_sum_fleetwide(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        harvest.absorb(self._frame("w0", 1, 3))
        harvest.absorb(self._frame("w1", 1, 4))
        assert parent.value("worker_serves_total", op="route") == 7
        assert parent.value("worker_serves_total", op="route", worker="w1") == 4
        assert parent.value("worker_serves_total", op="route", worker="w0") == 3

    def test_stale_frames_rejected(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        assert harvest.absorb(self._frame("w0", 2, 5))
        assert not harvest.absorb(self._frame("w0", 1, 3))
        assert parent.value("worker_serves_total", op="route") == 5

    def test_worker_restart_applies_full_value(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        harvest.absorb(self._frame("w0", 1, 10))
        # The worker restarted: its counter went backwards (fresh
        # registry).  The new total is additional work, not a replay.
        harvest.absorb(self._frame("w0", 2, 2))
        assert parent.value("worker_serves_total", op="route") == 12

    def test_histogram_deltas(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        worker = MetricsRegistry()
        worker.histogram("lat").observe(0.01)
        harvest.absorb(TelemetryFrame.capture("w0", 1, worker))
        worker.histogram("lat").observe(0.02)
        harvest.absorb(TelemetryFrame.capture("w0", 2, worker))
        fleet = parent.histogram("lat")
        assert fleet.count == 2
        assert fleet.min == 0.01 and fleet.max == 0.02
        assert parent.histogram("lat", worker="w0").count == 2

    def test_gauges_are_set_per_worker(self):
        parent = MetricsRegistry()
        harvest = TelemetryHarvest(parent)
        for worker, value in (("w0", 5), ("w1", 9)):
            registry = MetricsRegistry()
            registry.gauge("depth").set(value)
            harvest.absorb(TelemetryFrame.capture(worker, 1, registry))
        # Set, not summed: the fleet child holds the last frame's value.
        assert parent.value("depth") == 9
        assert parent.value("depth", worker="w0") == 5
        assert parent.value("depth", worker="w1") == 9


class TestSpanRecorderAndStitcher:
    """``Tracer(origin)`` records spans on both sides of the pipe."""

    def test_nesting_and_cross_process_parenting(self):
        parent = Tracer("parent")
        with parent.span("shard.dispatch") as dispatch:
            ctx = dispatch.context
        worker = Tracer("w0")
        with worker.span("shard.serve_batch", parent=ctx):
            with worker.span("inner"):
                pass
        stitcher = TraceStitcher()
        stitcher.add(parent.drain())
        stitcher.add(worker.drain())
        assert stitcher.fully_parented()
        by_name = {r["name"]: r for r in stitcher.records}
        assert by_name["shard.dispatch"]["parent_id"] is None
        batch = by_name["shard.serve_batch"]
        assert batch["parent_id"] == ctx.span_id == "parent-s1"
        assert batch["trace_id"] == ctx.trace_id == "parent-t1"
        assert batch["origin"] == "w0"
        assert by_name["inner"]["parent_id"] == batch["span_id"]
        assert by_name["inner"]["trace_id"] == ctx.trace_id

    def test_unparented_detected(self):
        stitcher = TraceStitcher()
        stitcher.add(
            [{"span_id": "x-s1", "parent_id": "missing", "name": "orphan"}]
        )
        assert not stitcher.fully_parented()
        assert stitcher.unparented()[0]["name"] == "orphan"

    def test_deterministic_ids(self):
        a, b = Tracer("w0"), Tracer("w0")
        for tracer in (a, b):
            with tracer.span("one"):
                pass
            with tracer.span("two"):
                pass
        ids_a = [(r["span_id"], r["trace_id"]) for r in a.drain()]
        ids_b = [(r["span_id"], r["trace_id"]) for r in b.drain()]
        assert ids_a == ids_b == [("w0-s1", "w0-t1"), ("w0-s2", "w0-t2")]

    def test_to_jsonl(self, tmp_path):
        tracer = Tracer("p")
        with tracer.span("root", n=3):
            pass
        stitcher = TraceStitcher()
        stitcher.add(tracer.drain())
        path = tmp_path / "trace.jsonl"
        assert stitcher.to_jsonl(str(path)) == 1
        row = json.loads(path.read_text().strip())
        assert set(row) == {
            "trace_id", "span_id", "parent_id", "name", "origin", "start",
            "duration_seconds", "attrs",
        }
        assert row["name"] == "root" and row["parent_id"] is None
        assert row["attrs"] == {"n": 3} and row["origin"] == "p"

    def test_drain_takes_finished_roots_and_leaves_open_spans(self):
        tracer = Tracer("p")
        with tracer.span("done"):
            pass
        with tracer.span("open") as open_span:
            with tracer.span("child"):
                pass
            assert [r["name"] for r in tracer.drain()] == ["done"]
            assert tracer.roots == [open_span]
            assert tracer.current is open_span
        records = tracer.drain()
        assert [r["name"] for r in records] == ["open", "child"]
        assert records[1]["parent_id"] == records[0]["span_id"]
        assert tracer.roots == [] and tracer.drain() == []

    def test_trace_context_pickles(self):
        ctx = TraceContext("t1", "s1")
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestCardinalityGuard:
    def test_cap_drops_new_labeled_children(self):
        registry = MetricsRegistry(max_label_children=2)
        registry.counter("m", tile="1").inc()
        registry.counter("m", tile="2").inc()
        detached = registry.counter("m", tile="3")
        detached.inc()  # still a working counter, just unregistered
        assert detached.value == 1
        assert registry.value("m", tile="3") == 0
        assert registry.value("obs_dropped_labels_total", family="m") == 1
        # Existing children keep resolving to the same object.
        registry.counter("m", tile="1").inc()
        assert registry.value("m", tile="1") == 2

    def test_unlabeled_child_exempt_from_cap(self):
        registry = MetricsRegistry(max_label_children=1)
        registry.counter("m", tile="1").inc()
        registry.counter("m").inc()  # the () child never counts
        assert registry.value("m") == 1

    def test_drop_counter_itself_never_capped(self):
        registry = MetricsRegistry(max_label_children=1)
        registry.counter("a", x="1").inc()
        registry.counter("a", x="2")  # dropped -> obs_dropped{family=a}
        registry.counter("b", x="1").inc()
        registry.counter("b", x="2")  # dropped -> obs_dropped{family=b}
        assert registry.value("obs_dropped_labels_total", family="a") == 1
        assert registry.value("obs_dropped_labels_total", family="b") == 1


class TestPublicSurface:
    def test_obs_exports_pipeline_names(self):
        import repro.obs as obs

        for name in (
            "TelemetryFrame", "TelemetryHarvest", "TraceContext",
            "Tracer", "TraceStitcher", "snapshot_state", "FlightRecorder",
            "flight_record", "SLO", "SLOMonitor",
        ):
            assert name in obs.__all__ and hasattr(obs, name)
