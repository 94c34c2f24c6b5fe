"""Experiments F1a, F1b — timed wrappers — plus the UDG-construction
timing ablation (grid hash vs brute force), which is a pure
pytest-benchmark measurement rather than a registry experiment.
"""

import pytest

from bench_utils import run_once, show
from repro.experiments import get
from repro.graphs import uniform_random_udg
from repro.graphs.udg import brute_adjacency, grid_adjacency


def test_fig1_dense_udg_has_quadratic_edges(benchmark):
    exp = get("F1a")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_fig1_fixed_density_udg_is_linear(benchmark):
    exp = get("F1b")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


@pytest.mark.parametrize(
    "builder", [grid_adjacency, brute_adjacency], ids=["grid", "brute"]
)
def test_fig1_construction_ablation(benchmark, builder):
    """Timing ablation: grid-hash vs brute-force UDG construction."""
    positions = uniform_random_udg(1500, 12.0, seed=2).positions
    adjacency = benchmark(lambda: builder(positions, 1.0))
    assert len(adjacency) == 1500
