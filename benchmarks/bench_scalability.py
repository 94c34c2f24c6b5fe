"""Scalability micro-benchmarks: wall-clock cost of the pipeline.

Not a paper claim — an implementation health check: the centralized
twins and the spatial-hash UDG builder must scale to thousands of nodes
so the library is usable for larger simulation studies.  Timed by
pytest-benchmark (multiple rounds, real statistics).
"""

import pytest

from repro.graphs import uniform_random_udg
from repro.graphs.udg import build_udg, grid_adjacency
from repro.wcds import algorithm1_centralized, algorithm2_centralized
from repro.wcds.algorithm2 import algorithm2_distributed


@pytest.fixture(scope="module")
def positions_2k():
    return [
        tuple(p)
        for p in uniform_random_udg(2000, 16.0, seed=1).positions.values()
    ]


@pytest.fixture(scope="module")
def udg_2k(positions_2k):
    return build_udg(positions_2k)


def test_scale_udg_build_2000(benchmark, positions_2k):
    graph = benchmark(lambda: build_udg(positions_2k))
    assert graph.num_nodes == 2000


def test_scale_udg_build_5000_vector(benchmark):
    # The vector kernels (which the size rule picks at this n) make
    # n=5000 cheap enough to benchmark routinely; cross-checked against
    # the pure grid builder.
    positions = [
        tuple(p)
        for p in uniform_random_udg(5000, 25.0, seed=4).positions.values()
    ]
    graph = benchmark(lambda: build_udg(positions))
    assert graph.num_nodes == 5000
    assert grid_adjacency(graph.positions, 1.0) == {
        node: set(graph.adjacency(node)) for node in graph.nodes()
    }


def test_scale_algorithm1_centralized_2000(benchmark, udg_2k):
    result = benchmark(lambda: algorithm1_centralized(udg_2k))
    result.validate(udg_2k)


def test_scale_algorithm2_centralized_2000(benchmark, udg_2k):
    result = benchmark(lambda: algorithm2_centralized(udg_2k))
    result.validate(udg_2k)


def test_scale_algorithm2_distributed_800(benchmark):
    graph = build_udg(
        [tuple(p) for p in uniform_random_udg(800, 10.0, seed=2).positions.values()]
    )
    result = benchmark.pedantic(
        lambda: algorithm2_distributed(graph), rounds=1, iterations=1
    )
    result.validate(graph)


def test_scale_spanner_extraction_2000(benchmark, udg_2k):
    result = algorithm2_centralized(udg_2k)
    spanner = benchmark(lambda: result.spanner(udg_2k))
    assert spanner.num_nodes == 2000
