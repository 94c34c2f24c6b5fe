"""Unit + property tests for unit-disk graph construction."""

import math

import pytest
from hypothesis import given, settings

from repro.geometry import Point
from repro.graphs import UnitDiskGraph, build_udg, uniform_random_udg
from repro.graphs.udg import brute_adjacency, grid_adjacency
from repro.kernels import AUTO_THRESHOLD, vector_adjacency

from tutils import position_lists, seeds


class TestConstruction:
    def test_edge_iff_within_radius(self):
        g = build_udg([(0, 0), (0.5, 0), (2, 0)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)

    def test_boundary_distance_is_an_edge(self):
        g = build_udg([(0, 0), (1.0, 0)])
        assert g.has_edge(0, 1)

    def test_custom_radius(self):
        g = build_udg([(0, 0), (1.5, 0)], radius=2.0)
        assert g.has_edge(0, 1)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            build_udg([(0, 0)], radius=0)

    def test_mapping_input_keeps_ids(self):
        g = build_udg({"a": Point(0, 0), "b": Point(0.2, 0)})
        assert g.has_edge("a", "b")

    def test_mixed_id_types_construct(self):
        # Unorderable mixed ids (int vs str) fall back to repr ordering
        # inside the grid builder; the edges must match brute force.
        positions = {
            1: Point(0, 0),
            "a": Point(0.3, 0),
            2: Point(0.6, 0),
            "b": Point(5.0, 5.0),
        }
        grid = grid_adjacency(positions, 1.0)
        assert grid == brute_adjacency(positions, 1.0)
        assert grid == vector_adjacency(list(positions.items()), 1.0)
        assert "a" in grid[1] and "b" not in grid[1]

    def test_negative_coordinates(self):
        g = build_udg([(-3.0, -3.0), (-3.5, -3.0), (3.0, 3.0)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)

    @given(position_lists)
    @settings(max_examples=60)
    def test_grid_equals_brute_force(self, positions):
        points = {i: Point(x, y) for i, (x, y) in enumerate(positions)}
        assert grid_adjacency(points, 1.0) == brute_adjacency(points, 1.0)

    @given(position_lists)
    @settings(max_examples=40)
    def test_grid_equals_brute_force_other_radius(self, positions):
        points = {i: Point(x, y) for i, (x, y) in enumerate(positions)}
        assert grid_adjacency(points, 1.7) == brute_adjacency(points, 1.7)

    def test_invalid_method(self):
        # The size rule picks the edge builder; there is no engine knob.
        with pytest.raises(TypeError):
            build_udg([(0, 0)], method="grid")


def _line(n):
    return {i: Point(0.9 * i, 0.0) for i in range(n)}


@pytest.mark.parametrize("n", [5, AUTO_THRESHOLD + 6], ids=["pure", "vector"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
class TestNonFiniteCoordinates:
    """Every path rejects a coordinate that is NaN or infinite, naming
    the node, instead of crashing in the grid or isolating the node."""

    def test_constructor(self, n, bad):
        positions = _line(n)
        positions[3] = Point(bad, 0.0)
        with pytest.raises(ValueError, match="of node 3 is not finite"):
            UnitDiskGraph(positions)
        with pytest.raises(ValueError, match="not finite"):
            build_udg([(0.0, 0.0)] * (n - 1) + [(0.0, -bad)])

    def test_move_and_join(self, n, bad):
        g = UnitDiskGraph(_line(n))
        edges = g.num_edges
        with pytest.raises(ValueError, match="of node 2 is not finite"):
            g.move_node(2, Point(1.0, bad))
        with pytest.raises(ValueError, match="of node 'x' is not finite"):
            g.add_node_at("x", (bad, bad))
        assert g.num_edges == edges and g.positions[2] == Point(1.8, 0.0)
        assert "x" not in g

    def test_disk_queries(self, n, bad):
        g = UnitDiskGraph(_line(n))
        with pytest.raises(ValueError, match="not finite"):
            g.nodes_within(Point(bad, 0.0), 1.0)
        with pytest.raises(ValueError, match="not finite"):
            g.nodes_within_many([Point(0.0, 0.0), Point(bad, 0.0)], 1.0)


class TestGeometryQueries:
    def test_euclidean_distance(self):
        g = build_udg([(0, 0), (0.3, 0.4)])
        assert g.euclidean_distance(0, 1) == pytest.approx(0.5)

    def test_path_euclidean_length(self):
        g = build_udg([(0, 0), (0.6, 0), (1.2, 0)])
        assert g.path_euclidean_length([0, 1, 2]) == pytest.approx(1.2)

    def test_nodes_within(self):
        g = build_udg([(0, 0), (1, 0), (5, 5)])
        assert set(g.nodes_within(Point(0, 0), 1.5)) == {0, 1}

    def test_position_lookup(self):
        g = build_udg({"x": Point(1, 2)})
        assert g.position("x") == Point(1, 2)

    def test_nodes_within_rejects_negative_radius(self):
        g = build_udg([(0, 0)])
        with pytest.raises(ValueError):
            g.nodes_within(Point(0, 0), -0.1)

    def test_nodes_within_zero_radius_hits_coincident_node(self):
        g = build_udg([(1.0, 1.0), (2.5, 2.5)])
        assert g.nodes_within(Point(1.0, 1.0), 0.0) == [0]

    @given(seeds)
    @settings(max_examples=30)
    def test_nodes_within_matches_brute_scan(self, seed):
        # Regression: the grid-cell routed query must agree with the
        # full O(n) scan for any center (on- or off-deployment) and any
        # radius, including ones spanning many cells.
        import random

        from repro.geometry import distance_squared

        rng = random.Random(seed)
        g = uniform_random_udg(25, 4.0, rng=rng)
        for _ in range(5):
            center = Point(rng.uniform(-2, 6), rng.uniform(-2, 6))
            radius = rng.choice([0.0, 0.3, 1.0, 2.7, 10.0])
            expected = sorted(
                node
                for node, pos in g.positions.items()
                if distance_squared(center, pos) <= radius * radius
            )
            assert g.nodes_within(center, radius) == expected


class TestMoveNode:
    def test_gains_and_losses(self):
        g = build_udg([(0, 0), (0.5, 0), (3, 0)])
        gained, lost = g.move_node(0, Point(2.5, 0))
        assert gained == {2}
        assert lost == {1}
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_noop_move(self):
        g = build_udg([(0, 0), (0.5, 0)])
        gained, lost = g.move_node(0, Point(0.1, 0))
        assert gained == set() and lost == set()

    def test_unknown_node(self):
        g = build_udg([(0, 0)])
        with pytest.raises(KeyError):
            g.move_node(99, Point(0, 0))

    @given(seeds)
    @settings(max_examples=20)
    def test_move_preserves_udg_invariant(self, seed):
        import random

        rng = random.Random(seed)
        g = uniform_random_udg(15, 3.0, rng=rng)
        for _ in range(5):
            node = rng.randrange(15)
            g.move_node(node, Point(rng.uniform(0, 3), rng.uniform(0, 3)))
        # After arbitrary moves, edges must match distances exactly.
        for u in g.nodes():
            for v in g.nodes():
                if u == v:
                    continue
                expected = g.euclidean_distance(u, v) <= 1.0
                assert g.has_edge(u, v) == expected


class TestCopy:
    def test_copy_is_deep(self):
        g = build_udg([(0, 0), (0.5, 0)])
        clone = g.copy()
        clone.move_node(0, Point(3, 3))
        assert g.has_edge(0, 1)
        assert not clone.has_edge(0, 1)
        assert isinstance(clone, UnitDiskGraph)


class TestDensityScaling:
    def test_dense_deployment_has_quadratic_edges(self):
        # All nodes inside a unit square -> complete graph region:
        # demonstrates why the raw UDG is not a sparse spanner.
        n = 40
        g = uniform_random_udg(n, 0.7, seed=1)
        assert g.num_edges == n * (n - 1) // 2

    def test_networkx_cross_validation(self):
        import networkx as nx

        g = uniform_random_udg(60, 5.0, seed=3)
        positions = {node: tuple(g.positions[node]) for node in g.nodes()}
        reference = nx.random_geometric_graph(60, 1.0, pos=positions)
        assert g.num_edges == reference.number_of_edges()


class TestIncrementalGrid:
    """The persistent spatial grid behind O(local-density) mutations
    must stay consistent with a from-scratch rebuild under any
    interleaving of moves, insertions, and removals."""

    @staticmethod
    def _edge_keys(g):
        return {frozenset(map(repr, e)) for e in g.edges()}

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_mutation_storm_matches_rebuild(self, seed):
        import random

        rng = random.Random(seed)
        g = uniform_random_udg(20, 4.0, rng=rng)
        next_id = 20
        for step in range(60):
            op = rng.random()
            nodes = list(g.nodes())
            if op < 0.5 and nodes:
                node = nodes[rng.randrange(len(nodes))]
                g.move_node(node, Point(rng.uniform(0, 4), rng.uniform(0, 4)))
            elif op < 0.75:
                g.add_node_at(
                    next_id, Point(rng.uniform(0, 4), rng.uniform(0, 4))
                )
                next_id += 1
            elif len(nodes) > 2:
                g.remove_node(nodes[rng.randrange(len(nodes))])
            rebuilt = build_udg(
                {node: tuple(g.positions[node]) for node in g.nodes()},
                radius=g.radius,
            )
            assert self._edge_keys(g) == self._edge_keys(rebuilt), f"step {step}"

    def test_add_node_reports_new_neighbors(self):
        g = build_udg([(0.0, 0.0), (3.0, 0.0)])
        neighbors = g.add_node_at(2, Point(0.5, 0.0))
        assert neighbors == {0}
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)

    def test_remove_then_readd_is_clean(self):
        g = build_udg([(0.0, 0.0), (0.5, 0.0), (3.0, 0.0)])
        g.remove_node(1)
        assert 1 not in g
        g.add_node_at(1, Point(2.5, 0.0))
        assert g.has_edge(1, 2) and not g.has_edge(0, 1)

    def test_copy_grid_is_independent(self):
        g = build_udg([(0.0, 0.0), (0.5, 0.0)])
        clone = g.copy()
        clone.add_node_at(9, Point(0.2, 0.0))
        assert 9 not in g
        assert clone.has_edge(9, 0) and clone.has_edge(9, 1)
        g.move_node(0, Point(3.0, 3.0))
        assert clone.has_edge(0, 1)  # clone's grid untouched by g's move
