"""Tests for the Monte-Carlo sweep: ``run_fleet`` rows folded by
``aggregate_rows``, the way ``repro montecarlo`` runs it."""

import pytest

from repro.analysis import aggregate_rows
from repro.graphs import connected_random_udg
from repro.sim.fleet import BackboneTrial, run_fleet

pytest.importorskip("numpy")

GRAPH = connected_random_udg(20, 3.2, seed=0)


def _trial(graph, seed: int):
    """Top-level (picklable) trial: deterministic pseudo-measurements."""
    return {"x": seed % 5, "y": 2 * seed, "n": graph.num_nodes}


def _monte_carlo(trial, seeds, workers=None):
    return aggregate_rows(run_fleet(GRAPH, trial, seeds, workers=workers))


class TestMonteCarlo:
    def test_serial_matches_expected(self):
        result = _monte_carlo(_trial, range(10), workers=0)
        assert result["x"].count == 10
        assert result["y"].maximum == 18
        assert result["y"].mean == pytest.approx(9.0)
        assert result["n"].mean == GRAPH.num_nodes

    def test_parallel_matches_serial(self):
        serial = _monte_carlo(_trial, range(8), workers=0)
        parallel = _monte_carlo(_trial, range(8), workers=2)
        assert serial == parallel

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="no seeds"):
            _monte_carlo(_trial, [], workers=2)

    def test_single_seed_runs_serially(self):
        # One seed takes the lane even when a fleet was asked for, so
        # a trial that could not be sent to a worker still runs.
        result = _monte_carlo(lambda graph, seed: {"x": seed}, [3], workers=2)
        assert result["x"].count == 1
        assert result["x"].mean == 3.0

    def test_unpicklable_single_seed_still_allowed(self):
        # One seed never parallelizes anywhere, so a lambda is fine
        # under the default worker count too.
        result = _monte_carlo(lambda graph, seed: {"x": seed}, [5])
        assert result["x"].mean == 5.0

    def test_real_workload_parallel(self):
        result = _monte_carlo(BackboneTrial(), range(4), workers=2)
        assert result["backbone"].minimum >= result["mis"].minimum
        assert result["backbone"].count == 4
