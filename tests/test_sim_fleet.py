"""The fleet runner: spawn workers over one shared topology.

``repro.sim.fleet`` runs on the shard pool's substrate,
:mod:`repro.workers` — spawn workers, a read-only
:class:`SharedPositions` block, piggybacked telemetry frames, one
death path — to sweep seeded trials.  The load-bearing promise is that a
sweep's rows are *identical* whether it ran inline (``workers=0``) or
scattered across workers, in the caller's seed order either way.
"""

import os

import pytest

from repro.analysis import aggregate_rows
from repro.graphs import connected_random_udg
from repro.obs import MetricsRegistry
from repro.obs.flightrec import FlightRecorder, set_flight_recorder
from repro.sim import fleet
from repro.sim.fleet import BackboneTrial, ChaosTrial, FleetRunner, run_fleet

pytest.importorskip("numpy")

GRAPH = connected_random_udg(40, 4.0, seed=6)
SEEDS = list(range(6))


def _trial(graph, seed: int):
    """Top-level (picklable) trial: deterministic pseudo-measurements."""
    return {"x": seed % 5, "y": 2 * seed, "n": graph.num_nodes}


class TestInlinePath:
    def test_rows_in_seed_order(self):
        trial = BackboneTrial(algorithm="algorithm2")
        rows = run_fleet(GRAPH, trial, SEEDS, workers=0)
        assert len(rows) == len(SEEDS)
        for row in rows:
            assert {"backbone", "mis", "messages", "rounds"} <= set(row)

    def test_empty_seeds_rejected(self):
        with FleetRunner(GRAPH, workers=0) as fleet:
            with pytest.raises(ValueError, match="no seeds"):
                fleet.run(BackboneTrial(), [])

    def test_inline_telemetry_counts_trials(self):
        registry = MetricsRegistry()
        run_fleet(GRAPH, BackboneTrial(), SEEDS, workers=0, registry=registry)
        counter = registry.counter("fleet_trials_total", "")
        assert counter.value == len(SEEDS)
        assert registry.value("fleet_trials_total", worker="f0") == len(SEEDS)
        # one chunk reply and one close reply
        assert registry.value("worker_replies_total") == registry.value(
            "worker_replies_total", worker="f0"
        ) == 2


class TestSweepContract:
    """What every sweep gets from ``run_fleet``: the lane for lambdas
    and the picklability check (aggregation and the one-seed rule are
    in ``test_montecarlo``)."""

    def test_lambda_runs_in_the_lane(self):
        rows = run_fleet(GRAPH, lambda graph, seed: {"x": seed}, [4, 5], workers=0)
        assert rows == [{"x": 4}, {"x": 5}]

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_unpicklable_trial_explained(self, workers, monkeypatch):
        # Checked before any worker starts, for every worker count, so a
        # sweep that passes on a small machine does not fail on a big one.
        group = fleet.WorkerGroup

        def lane_only(*args, count, **kwargs):
            assert count == 0, f"{count} workers started before the check"
            return group(*args, count=count, **kwargs)

        monkeypatch.setattr(fleet, "WorkerGroup", lane_only)
        with pytest.raises(TypeError, match="picklable"):
            run_fleet(GRAPH, lambda graph, seed: {"x": seed}, SEEDS[:2],
                      workers=workers)

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            FleetRunner(GRAPH, workers=-1)
        with pytest.raises(ValueError, match="worker count"):
            run_fleet(GRAPH, _trial, [1], workers=-1)


class TestWorkerParity:
    def test_worker_rows_match_inline(self):
        trial = BackboneTrial(algorithm="algorithm2")
        inline = run_fleet(GRAPH, trial, SEEDS, workers=0)
        spawned = run_fleet(GRAPH, trial, SEEDS, workers=2)
        assert spawned == inline

    def test_jittered_rows_match_inline(self):
        # Engine agreement under jitter is gated by the batched-engine
        # oracle tests; this pins the lane against the spawn workers.
        trial = BackboneTrial(jitter=True)
        spawned = run_fleet(GRAPH, trial, SEEDS, workers=2)
        inline = run_fleet(GRAPH, trial, SEEDS, workers=0)
        assert spawned == inline

    def test_chaos_trial_parity(self):
        trial = ChaosTrial(algorithm="algorithm2", loss=0.1, crashes=1)
        seeds = SEEDS[:3]
        inline = run_fleet(GRAPH, trial, seeds, workers=0)
        spawned = run_fleet(GRAPH, trial, seeds, workers=2)
        assert spawned == inline
        for row in inline:
            assert row["valid"] == 1.0

    def test_worker_telemetry_harvested(self):
        registry = MetricsRegistry()
        with FleetRunner(GRAPH, workers=2, registry=registry) as fleet:
            fleet.run(BackboneTrial(), SEEDS)
        assert registry.value("fleet_trials_total") == len(SEEDS)

    def test_harvested_totals_equal_worker_totals_exactly(self):
        registry = MetricsRegistry()
        with FleetRunner(GRAPH, workers=2, registry=registry) as fleet:
            fleet.run(BackboneTrial(), SEEDS)
            fleet.run(BackboneTrial(), SEEDS[:2])
        # close absorbed the final frames: two sweeps of two chunks
        # each, then one close reply per worker
        for name, expected in (
            ("worker_replies_total", 6),
            ("fleet_trials_total", len(SEEDS) + 2),
        ):
            split = [registry.value(name, worker=w) for w in ("f0", "f1")]
            assert registry.value(name) == sum(split) == expected, name
            assert all(value > 0 for value in split), name

    def test_trace_stitching_exports_spans(self, tmp_path):
        import json

        traces = []
        for run in range(2):
            path = tmp_path / f"fleet_trace{run}.jsonl"
            with FleetRunner(GRAPH, workers=2, registry=MetricsRegistry()) as fleet:
                fleet.run(BackboneTrial(), SEEDS[:4])
                count = fleet.export_trace(str(path))
                assert fleet.stitcher.fully_parented()
            records = [json.loads(line) for line in path.read_text().splitlines()]
            assert len(records) == count > 0
            by_id = {r["span_id"]: r for r in records}
            chunks = [r for r in records if r["name"] == "fleet.run_chunk"]
            assert sorted(r["origin"] for r in chunks) == ["f0", "f1"]
            for chunk in chunks:
                assert by_id[chunk["parent_id"]]["name"] == "fleet.dispatch"
            traces.append(sorted(
                (r["trace_id"], r["span_id"], r["parent_id"], r["name"])
                for r in records
            ))
        assert traces[0] == traces[1]  # ids are counters, not clocks


class TestRewiredEntryPoints:
    """The sweeps that used to have wrappers now call ``run_fleet``."""

    def test_monte_carlo_routes_through_fleet(self):
        aggregates = aggregate_rows(
            run_fleet(GRAPH, BackboneTrial(), SEEDS[:4], workers=0)
        )
        assert aggregates["backbone"].count == 4

    def test_chaos_matrix_rows(self):
        trial = ChaosTrial(algorithm="algorithm2", loss=0.1, crashes=1)
        rows = run_fleet(GRAPH, trial, SEEDS[:2], workers=0)
        assert len(rows) == 2
        for row in rows:
            assert row["valid"] == 1.0
            assert row["survivors"] == GRAPH.num_nodes - 1


class TestLifecycle:
    def test_close_is_idempotent(self):
        fleet = FleetRunner(GRAPH, workers=2)
        fleet.run(BackboneTrial(), SEEDS[:2])
        fleet.close()
        fleet.close()

    def test_dead_worker_reported(self):
        fleet = FleetRunner(GRAPH, workers=2)
        try:
            for process in fleet.group.processes[:1]:
                process.terminate()
                process.join(timeout=10)
            with pytest.raises(RuntimeError, match="died mid-sweep"):
                fleet.run(BackboneTrial(), SEEDS)
        finally:
            fleet.close()

    def test_calls_after_a_death_fail_closed(self):
        fleet = FleetRunner(GRAPH, workers=2)
        try:
            fleet.group.processes[1].kill()
            fleet.group.processes[1].join(timeout=10)
            with pytest.raises(RuntimeError, match="f1 died mid-sweep"):
                fleet.run(BackboneTrial(), [1, 2, 3, 4])
            # f0 still owes the rows for seeds 1-2; the next sweep must
            # not return them as its own.
            with pytest.raises(RuntimeError, match="f1 died mid-sweep"):
                fleet.run(BackboneTrial(), [7])
        finally:
            fleet.close()
        assert fleet.group.processes == []
        assert fleet.group.shared is None

    def test_death_is_counted_and_flight_recorded(self):
        recorder = FlightRecorder(process="main")
        set_flight_recorder(recorder)
        registry = MetricsRegistry()
        fleet = FleetRunner(GRAPH, workers=2, registry=registry)
        try:
            fleet.group.processes[0].kill()
            fleet.group.processes[0].join(timeout=10)
            with pytest.raises(RuntimeError, match="f0 died mid-sweep"):
                fleet.run(BackboneTrial(), SEEDS)
        finally:
            fleet.close()
            set_flight_recorder(None)
        deaths = recorder.find("worker_death")
        assert [entry["worker"] for entry in deaths] == ["f0"]
        assert registry.value("fleet_worker_deaths_total") == 1

    def test_default_worker_count_bounded(self):
        from repro.sim.fleet import _default_workers

        assert 1 <= _default_workers() <= 8
        assert _default_workers() <= max(1, os.cpu_count() or 1)
