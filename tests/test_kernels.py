"""Cross-validation of the numpy kernels against the pure oracles.

Every kernel in ``repro.kernels`` promises *exact* equality with its
pure-Python twin (same float64 operation order), so these tests assert
set/dict equality, not approximation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, disk_occupancies, max_disk_occupancy
from repro.graphs import (
    UnitDiskGraph,
    all_pairs_hop_distances,
    bfs_distances,
    build_udg,
    hop_distance_stats,
    multi_source_hop_distances,
    uniform_random_udg,
)
from repro.kernels import (
    HAVE_NUMPY,
    KernelUnavailableError,
    graph_to_csr,
    packed_hop_distances,
    resolve_method,
    vector_all_pairs_hop_distances,
    vector_udg_edges,
)

from tutils import position_lists, seeds

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: Radii beyond the default 1.0, exercised by the property tests.
radii = st.sampled_from([0.4, 1.0, 1.7])


def edge_keys(graph):
    return {frozenset(edge) for edge in graph.edges()}


@needs_numpy
class TestVectorUdgEquivalence:
    @given(position_lists, radii)
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_grid_and_brute(self, positions, radius):
        grid = build_udg(positions, radius=radius, method="grid")
        brute = build_udg(positions, radius=radius, method="brute")
        vector = build_udg(positions, radius=radius, method="vector")
        assert edge_keys(vector) == edge_keys(grid) == edge_keys(brute)
        assert set(vector.nodes()) == set(grid.nodes())

    @given(position_lists)
    @settings(max_examples=30, deadline=None)
    def test_duplicate_positions(self, positions):
        # Coincident nodes (distance 0) must still produce every edge.
        doubled = positions + positions[: len(positions) // 2 + 1]
        grid = build_udg(doubled, method="grid")
        vector = build_udg(doubled, method="vector")
        assert edge_keys(vector) == edge_keys(grid)

    def test_empty_and_singleton(self):
        assert build_udg({}, method="vector").num_nodes == 0
        g = build_udg([(2.0, 3.0)], method="vector")
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_negative_coordinates(self):
        g = build_udg([(-3.0, -3.0), (-3.5, -3.0), (3.0, 3.0)], method="vector")
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_string_node_ids(self):
        positions = {"a": Point(0, 0), "b": Point(0.5, 0), "c": Point(5, 5)}
        g = build_udg(positions, method="vector")
        assert g.has_edge("a", "b") and not g.has_edge("a", "c")

    def test_vector_graph_supports_mutation(self):
        # The spatial grid is built lazily for the vector method; moves
        # and insertions must still work on top of it.
        g = build_udg([(0.0, 0.0), (0.5, 0.0), (3.0, 0.0)], method="vector")
        gained, lost = g.move_node(0, Point(2.5, 0.0))
        assert gained == {2} and lost == {1}
        assert g.add_node_at(9, Point(2.6, 0.0)) == {0, 2}
        g.remove_node(9)
        assert 9 not in g

    def test_raw_edge_kernel_is_unordered_unique(self):
        rng = random.Random(3)
        coords = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(50)]
        edges = vector_udg_edges(coords, 1.0)
        pairs = [frozenset(pair) for pair in edges.tolist()]
        assert len(pairs) == len(set(pairs))
        brute = build_udg(coords, method="brute")
        assert set(pairs) == edge_keys(brute)


@needs_numpy
class TestVectorBfsEquivalence:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_all_pairs_matches_pure(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 50)
        side = rng.uniform(1.0, 9.0)
        g = uniform_random_udg(n, side, rng=rng)
        pure = all_pairs_hop_distances(g, method="pure")
        vector = all_pairs_hop_distances(g, method="vector")
        assert pure == vector

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_subset_sources_match_bfs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 40)
        g = uniform_random_udg(n, rng.uniform(1.0, 12.0), rng=rng)
        sources = rng.sample(list(g.nodes()), rng.randrange(1, n))
        vector = multi_source_hop_distances(g, sources, method="vector")
        assert vector == {s: bfs_distances(g, s) for s in sources}

    def test_disconnected_pairs_are_absent(self):
        g = build_udg([(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)])
        result = vector_all_pairs_hop_distances(g)
        assert result[0] == {0: 0, 1: 1}
        assert result[2] == {2: 0}

    def test_matrix_form(self):
        import numpy as np

        g = build_udg([(0.0, 0.0), (0.9, 0.0), (1.8, 0.0), (9.0, 9.0)])
        node_list, heads, tails = graph_to_csr(g)
        dist = packed_hop_distances(heads, tails, len(node_list))
        assert dist.shape == (4, 4)
        i = {node: k for k, node in enumerate(node_list)}
        assert dist[i[0], i[2]] == 2
        assert dist[i[0], i[3]] == -1
        assert np.all(dist.diagonal() == 0)

    def test_empty_and_edgeless_graphs(self):
        g = build_udg({})
        assert vector_all_pairs_hop_distances(g) == {}
        lonely = build_udg([(0.0, 0.0), (5.0, 5.0)])
        assert vector_all_pairs_hop_distances(lonely) == {0: {0: 0}, 1: {1: 0}}

    def test_more_than_64_sources_crosses_word_boundary(self):
        # The bitsets pack sources 64 per uint64 word; a graph bigger
        # than one word exercises the multi-word OR path.
        g = uniform_random_udg(130, 6.0, seed=11)
        assert all_pairs_hop_distances(g, method="vector") == all_pairs_hop_distances(
            g, method="pure"
        )

    def test_hop_stats_engines_agree(self):
        g = uniform_random_udg(40, 4.0, seed=5)
        assert hop_distance_stats(g, method="vector") == hop_distance_stats(
            g, method="pure"
        )

    def test_dilation_report_engines_agree(self):
        # Regression: the worst-pair argmax must tie-break identically
        # whichever engine produced the hop dicts (targets now visit in
        # canonical order, not dict-insertion order).
        from repro.spanner import measure_dilation
        from repro.wcds import algorithm2_centralized

        g = uniform_random_udg(80, 5.0, seed=7)
        spanner = algorithm2_centralized(g).spanner(g)
        assert measure_dilation(g, spanner, kernels="vector") == (
            measure_dilation(g, spanner, kernels="pure")
        )


@needs_numpy
class TestDiskKernels:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_nodes_within_many_engines_agree(self, seed):
        rng = random.Random(seed)
        g = uniform_random_udg(rng.randrange(1, 40), rng.uniform(1, 6), rng=rng)
        centers = [
            Point(rng.uniform(-1, 7), rng.uniform(-1, 7)) for _ in range(5)
        ]
        radius = rng.choice([0.0, 0.5, 1.3])
        assert g.nodes_within_many(centers, radius, method="vector") == (
            g.nodes_within_many(centers, radius, method="pure")
        )

    def test_nodes_within_many_engines_agree_on_mixed_ids(self):
        # The whole deployment's canonical order is repr-keyed ('a',
        # 10, 9); the hits 9 and 10 compare, so each list is [9, 10].
        g = UnitDiskGraph(
            {"a": Point(5.0, 5.0), 9: Point(0.0, 0.0), 10: Point(0.5, 0.0)}, 1.0
        )
        centers = [Point(0.25, 0.0), Point(5.0, 5.0), Point(0.0, 0.0)]
        vector = g.nodes_within_many(centers, 1.0, method="vector")
        assert vector == g.nodes_within_many(centers, 1.0, method="pure")
        assert vector == [[9, 10], ["a"], [9, 10]]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_disk_occupancies_engines_agree(self, seed):
        rng = random.Random(seed)
        points = [
            (rng.uniform(0, 5), rng.uniform(0, 5))
            for _ in range(rng.randrange(1, 60))
        ]
        centers = points[: rng.randrange(1, len(points) + 1)]
        assert disk_occupancies(points, centers, 1.0, method="vector") == (
            disk_occupancies(points, centers, 1.0, method="pure")
        )

    def test_max_disk_occupancy(self):
        points = [(0.0, 0.0), (0.5, 0.0), (0.9, 0.0), (5.0, 5.0)]
        # Around (0.5, 0): all three left points are within radius 1.
        assert max_disk_occupancy(points, 1.0) == 3
        assert max_disk_occupancy([], 1.0) == 0

    @needs_numpy
    def test_disk_kernels_accept_point_objects(self):
        # Regression: Point is iterable but not array-like, so
        # np.asarray over a list of Points used to raise TypeError.
        points = [Point(0.0, 0.0), Point(0.5, 0.0), Point(0.9, 0.0)]
        tuples = [(p.x, p.y) for p in points]
        assert max_disk_occupancy(points, 1.0, method="vector") == 3
        assert disk_occupancies(points, points, 1.0, method="vector") == (
            disk_occupancies(tuples, tuples, 1.0, method="pure")
        )

    def test_density_probe_engines_agree(self):
        from repro.mobility import density_probe

        g = uniform_random_udg(50, 5.0, seed=9)
        pure = density_probe(g, 5.0, resolution=4, method="pure")
        vector = density_probe(g, 5.0, resolution=4, method="vector")
        assert pure == vector
        assert len(pure) == 4 and all(len(row) == 4 for row in pure)


class TestMethodResolution:
    def test_explicit_choices_pass_through(self):
        assert resolve_method("pure", size=10**9) == "pure"
        if HAVE_NUMPY:
            assert resolve_method("vector", size=0) == "vector"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            resolve_method("magic", size=100)

    def test_auto_prefers_pure_below_threshold(self):
        assert resolve_method("auto", size=3) == "pure"

    @needs_numpy
    def test_auto_prefers_vector_above_threshold(self):
        assert resolve_method("auto", size=10_000) == "vector"

    def test_without_numpy_everything_degrades(self, monkeypatch):
        import repro.kernels._compat as compat

        monkeypatch.setattr(compat, "HAVE_NUMPY", False)
        assert compat.resolve_method("auto", size=10**9) == "pure"
        with pytest.raises(KernelUnavailableError):
            compat.require_numpy()
