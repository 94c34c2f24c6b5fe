"""Tests for the topology generators."""

import math

import pytest
from hypothesis import given, settings

from repro.graphs import (
    clustered_udg,
    connected_random_udg,
    density_sweep_sides,
    grid_udg,
    is_connected,
    jittered_grid,
    line_udg,
    paper_figure2_udg,
    perturbed_grid_udg,
    uniform_random_udg,
)
from repro.wcds import is_weakly_connected_dominating_set

from tutils import seeds


class TestUniformRandom:
    def test_node_count_and_bounds(self):
        g = uniform_random_udg(50, 4.0, seed=0)
        assert g.num_nodes == 50
        for pos in g.positions.values():
            assert 0 <= pos.x <= 4 and 0 <= pos.y <= 4

    def test_seed_reproducibility(self):
        a = uniform_random_udg(30, 5.0, seed=9)
        b = uniform_random_udg(30, 5.0, seed=9)
        assert a.positions == b.positions

    def test_different_seeds_differ(self):
        a = uniform_random_udg(30, 5.0, seed=1)
        b = uniform_random_udg(30, 5.0, seed=2)
        assert a.positions != b.positions


class TestConnectedRandom:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_always_connected(self, seed):
        g = connected_random_udg(25, 3.0, seed=seed)
        assert is_connected(g)

    def test_impossible_density_raises(self):
        with pytest.raises(RuntimeError):
            connected_random_udg(5, 100.0, max_attempts=3, seed=0)


class TestGrids:
    def test_grid_structure(self):
        g = grid_udg(3, 4, spacing=0.9)
        assert g.num_nodes == 12
        # 4-connected grid: horizontal + vertical edges only.
        assert g.num_edges == 3 * 3 + 2 * 4
        assert is_connected(g)

    def test_grid_with_diagonals(self):
        g = grid_udg(2, 2, spacing=0.6)  # diagonal = 0.85 < 1
        assert g.num_edges == 6  # complete K4

    def test_perturbed_grid_reproducible(self):
        a = perturbed_grid_udg(3, 3, seed=4)
        b = perturbed_grid_udg(3, 3, seed=4)
        assert a.positions == b.positions


def _digests(graph):
    """Short digests of a graph's exact positions and of its edge set."""
    import hashlib

    positions = sorted(
        (v, p.x.hex(), p.y.hex()) for v, p in graph.positions.items()
    )
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    return tuple(
        hashlib.sha256(repr(value).encode()).hexdigest()[:16]
        for value in (positions, edges)
    )


class TestJitteredGrid:
    @pytest.mark.parametrize("n", [1, 2, 63, 2000])
    def test_connected_with_exactly_n_nodes(self, n):
        g = jittered_grid(n, seed=0)
        assert g.num_nodes == n
        assert is_connected(g)

    def test_partial_last_row(self):
        # 2000 nodes fill 44 columns: 45 full rows and 20 nodes over.
        g = jittered_grid(2000, seed=0)
        top = max(round(p.y / 0.55) for p in g.positions.values())
        assert top == 45
        assert sum(1 for p in g.positions.values() if round(p.y / 0.55) == 45) == 20

    def test_seed_reproducibility(self):
        assert jittered_grid(300, 4).positions == jittered_grid(300, 4).positions
        assert jittered_grid(300, 4).positions != jittered_grid(300, 5).positions

    @pytest.mark.parametrize("n", [400, 900])
    def test_equals_perturbed_grid_on_a_square(self, n):
        side = int(n**0.5)
        a = jittered_grid(n, seed=5)
        b = perturbed_grid_udg(side, side, spacing=0.55, jitter=0.1 * 0.55, seed=5)
        assert a.positions == b.positions
        assert set(map(frozenset, a.edges())) == set(map(frozenset, b.edges()))

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2000, ("c78325cf513ef6d6", "b7cc9ccd63d16f82")),
            (10000, ("e3416769b62a6dcf", "8511bcf417df7d44")),
        ],
    )
    def test_positions_and_edges_are_pinned(self, n, expected):
        # The benchmark suite's deployments and their recorded
        # invariants depend on these exact bits.
        assert _digests(jittered_grid(n, seed=0)) == expected


class TestLine:
    def test_line_is_path(self):
        g = line_udg(6, spacing=0.9)
        assert g.num_edges == 5
        assert g.degree(0) == 1 and g.degree(5) == 1
        assert all(g.degree(i) == 2 for i in range(1, 5))

    def test_dense_spacing_adds_two_hop_edges(self):
        g = line_udg(5, spacing=0.5)
        assert g.has_edge(0, 2)


class TestClustered:
    def test_counts(self):
        g = clustered_udg(4, 10, side=8.0, seed=2)
        assert g.num_nodes == 40

    def test_clusters_are_locally_dense(self):
        g = clustered_udg(1, 12, side=5.0, cluster_radius=0.4, seed=3)
        # All 12 nodes within a 0.4-radius disk: pairwise distance < 1.
        assert g.num_edges == 12 * 11 // 2


class TestPaperFigure2:
    def test_matches_figure(self):
        g = paper_figure2_udg()
        assert g.num_nodes == 8
        assert not g.has_edge(1, 2)  # the two dominators are NOT adjacent
        assert is_weakly_connected_dominating_set(g, {1, 2})
        # ... so {1, 2} is a WCDS but not a CDS: the induced subgraph
        # on {1, 2} has no edge.
        assert g.subgraph({1, 2}).num_edges == 0

    def test_every_other_node_is_dominated(self):
        g = paper_figure2_udg()
        for node in g.nodes():
            if node in (1, 2):
                continue
            assert g.adjacency(node) & {1, 2}


class TestDensitySweep:
    def test_side_formula(self):
        (pair,) = density_sweep_sides(100, [10.0])
        degree, side = pair
        assert degree == 10.0
        assert side == pytest.approx(math.sqrt(100 * math.pi / 10.0))

    def test_achieved_degree_is_near_target(self):
        (_, side), = density_sweep_sides(400, [8.0])
        g = uniform_random_udg(400, side, seed=5)
        avg = 2 * g.num_edges / g.num_nodes
        # Boundary effects push the average below target, never wildly off.
        assert 0.5 * 8.0 <= avg <= 1.2 * 8.0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            density_sweep_sides(10, [0])
