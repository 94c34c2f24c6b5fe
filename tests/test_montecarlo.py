"""Tests for the Monte-Carlo runner (always on the fleet runner)."""

import pytest

from repro.analysis.montecarlo import monte_carlo
from repro.graphs import connected_random_udg

GRAPH = connected_random_udg(20, 3.2, seed=0)


def _trial(graph, seed: int):
    """Top-level (picklable) trial: deterministic pseudo-measurements."""
    return {"x": seed % 5, "y": 2 * seed, "n": graph.num_nodes}


def _wcds_trial(graph, seed: int):
    from repro.backbone import build
    from repro.sim.config import SimConfig

    result = build("algorithm2", graph, sim=SimConfig(seed=seed))
    return {"size": len(result.dominators), "mis": len(result.mis_dominators)}


class TestMonteCarlo:
    def test_serial_matches_expected(self):
        result = monte_carlo(_trial, range(10), graph=GRAPH, processes=0)
        assert result["x"].count == 10
        assert result["y"].maximum == 18
        assert result["y"].mean == pytest.approx(9.0)
        assert result["n"].mean == GRAPH.num_nodes

    def test_parallel_matches_serial(self):
        serial = monte_carlo(_trial, range(8), graph=GRAPH, processes=0)
        parallel = monte_carlo(_trial, range(8), graph=GRAPH, processes=2)
        for key in serial:
            assert serial[key].mean == parallel[key].mean
            assert serial[key].maximum == parallel[key].maximum

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo(_trial, [], graph=GRAPH)

    def test_unpicklable_trial_explained(self):
        captured = {}
        with pytest.raises(TypeError, match="picklable"):
            monte_carlo(
                lambda graph, seed: {"x": captured and seed},
                range(4),
                graph=GRAPH,
                processes=2,
            )

    def test_single_seed_runs_serially(self):
        # One seed runs inline even when a fleet was asked for.
        result = monte_carlo(_trial, [3], graph=GRAPH, processes=2)
        assert result["x"].count == 1

    def test_unpicklable_trial_rejected_even_serially(self):
        # Regression: a single-worker sweep used to skip the
        # picklability check, so a sweep could pass on a laptop and fail
        # on a bigger machine where the same call fans out to workers.
        with pytest.raises(TypeError, match="picklable"):
            monte_carlo(
                lambda graph, seed: {"x": seed}, range(4), graph=GRAPH, processes=1
            )

    def test_unpicklable_single_seed_still_allowed(self):
        # One seed never parallelizes anywhere, so a lambda is fine.
        result = monte_carlo(lambda graph, seed: {"x": seed}, [5], graph=GRAPH)
        assert result["x"].mean == 5.0

    def test_real_workload_parallel(self):
        result = monte_carlo(_wcds_trial, range(4), graph=GRAPH, processes=2)
        assert result["size"].minimum >= result["mis"].minimum
        assert result["size"].count == 4
