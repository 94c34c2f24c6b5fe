"""Cross-validation of the numpy kernels against the pure oracles.

Every kernel in ``repro.kernels`` promises *exact* equality with its
pure-Python twin (same float64 operation order), so these tests assert
set/dict equality, not approximation.  Each test calls the oracle and
the kernel by name, on inputs both below and above
``AUTO_THRESHOLD``; the public entry points pick between them by size
alone.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.geometry import Point, disk_occupancies, max_disk_occupancy
from repro.geometry.packing import pure_disk_occupancies
from repro.graphs import (
    UnitDiskGraph,
    all_pairs_hop_distances,
    bfs_distances,
    build_udg,
    connected_random_udg,
    hop_distance_stats,
    line_udg,
    multi_source_hop_distances,
    uniform_random_udg,
)
from repro.graphs.udg import brute_adjacency, grid_adjacency
from repro.kernels import (
    AUTO_THRESHOLD,
    count_points_in_disks,
    graph_to_csr,
    packed_hop_distances,
    use_vector,
    vector_adjacency,
    vector_hop_distances,
    vector_nodes_within,
    vector_udg_edges,
)
from repro.mobility import density_probe
from repro.opt import greedy_mwds, greedy_mwds_wcds
from repro.spanner import measure_dilation, sampled_dilation
from repro.wcds import algorithm2_centralized

from tutils import position_lists, seeds

#: Radii beyond the default 1.0, exercised by the property tests.
radii = st.sampled_from([0.4, 1.0, 1.7])

#: Input sizes on both sides of the crossover.
SIZES = [0, 1, AUTO_THRESHOLD - 1, AUTO_THRESHOLD, 2 * AUTO_THRESHOLD + 2]


def as_positions(points):
    return {i: Point(float(x), float(y)) for i, (x, y) in enumerate(points)}


def scattered(n, seed, side=None):
    """``n`` uniform positions at a density near the connectivity edge."""
    rng = random.Random(seed)
    side = side if side is not None else max(1.0, (n / 3.0) ** 0.5)
    return {i: Point(rng.uniform(0, side), rng.uniform(0, side)) for i in range(n)}


def mixed_ids(positions):
    """The same deployment with every third id renamed to a string."""
    return {
        (f"s{node}" if node % 3 == 0 else node): pos
        for node, pos in positions.items()
    }


def two_islands(n):
    """``n`` nodes in two far-apart clusters: a disconnected deployment."""
    positions = scattered(n, seed=n)
    return {
        node: Point(pos.x + (50.0 if node % 2 else 0.0), pos.y)
        for node, pos in positions.items()
    }


def all_builders(positions, radius=1.0):
    grid = grid_adjacency(positions, radius)
    assert brute_adjacency(positions, radius) == grid
    assert vector_adjacency(list(positions.items()), radius) == grid
    return grid


class TestMethodResolution:
    """One size rule picks every twin: ``use_vector``."""

    def test_auto_prefers_pure_below_threshold(self):
        assert not use_vector(0)
        assert not use_vector(3)
        assert not use_vector(AUTO_THRESHOLD - 1)

    def test_auto_prefers_vector_above_threshold(self):
        assert use_vector(AUTO_THRESHOLD)
        assert use_vector(10_000)


class TestVectorUdgEquivalence:
    @given(position_lists, radii)
    @settings(max_examples=60, deadline=None)
    def test_vector_equals_grid_and_brute(self, points, radius):
        all_builders(as_positions(points), radius)

    @given(position_lists)
    @settings(max_examples=30, deadline=None)
    def test_duplicate_positions(self, points):
        # Coincident nodes (distance 0) must still produce every edge.
        all_builders(as_positions(points + points[: len(points) // 2 + 1]))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("shape", ["plain", "mixed-ids", "disconnected"])
    def test_builders_agree_across_the_threshold(self, n, shape):
        positions = {
            "plain": scattered,
            "mixed-ids": lambda n, seed: mixed_ids(scattered(n, seed)),
            "disconnected": lambda n, seed: two_islands(n),
        }[shape](n, 5)
        expected = all_builders(positions)
        # The constructor builds the same adjacency whichever twin the
        # size rule hands it to.
        g = UnitDiskGraph(positions)
        assert {node: set(g.adjacency(node)) for node in g.nodes()} == expected

    def test_empty_and_singleton(self):
        assert vector_adjacency([], 1.0) == {}
        assert all_builders({7: Point(2.0, 3.0)}) == {7: set()}

    def test_negative_coordinates(self):
        points = [(-3.0, -3.0), (-3.5, -3.0), (3.0, 3.0)]
        adjacency = all_builders(as_positions(points))
        assert adjacency[0] == {1} and adjacency[2] == set()

    def test_string_node_ids(self):
        positions = {"a": Point(0, 0), "b": Point(0.5, 0), "c": Point(5, 5)}
        assert all_builders(positions) == {"a": {"b"}, "b": {"a"}, "c": set()}

    def test_vector_graph_supports_mutation(self):
        # From the threshold up the constructor never builds the
        # spatial grid; moves and insertions build it on first use.
        far = {i: Point(100.0 + 5.0 * i, 0.0) for i in range(3, AUTO_THRESHOLD)}
        g = UnitDiskGraph(
            {0: Point(0.0, 0.0), 1: Point(0.5, 0.0), 2: Point(3.0, 0.0), **far}
        )
        assert g._grid is None
        gained, lost = g.move_node(0, Point(2.5, 0.0))
        assert gained == {2} and lost == {1}
        assert g.add_node_at(999, Point(2.6, 0.0)) == {0, 2}
        g.remove_node(999)
        assert 999 not in g

    def test_raw_edge_kernel_is_unordered_unique(self):
        rng = random.Random(3)
        coords = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(50)]
        edges = vector_udg_edges(coords, 1.0)
        pairs = [frozenset(pair) for pair in edges.tolist()]
        assert len(pairs) == len(set(pairs))
        brute = brute_adjacency(as_positions(coords), 1.0)
        assert set(pairs) == {
            frozenset((u, v)) for u, nbrs in brute.items() for v in nbrs
        }


def bfs_oracle(graph, sources):
    return {source: bfs_distances(graph, source) for source in sources}


class TestVectorBfsEquivalence:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_all_pairs_matches_pure(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 50)
        g = uniform_random_udg(n, rng.uniform(1.0, 9.0), rng=rng)
        nodes = list(g.nodes())
        assert vector_hop_distances(g, nodes) == bfs_oracle(g, nodes)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_subset_sources_match_bfs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 40)
        g = uniform_random_udg(n, rng.uniform(1.0, 12.0), rng=rng)
        sources = rng.sample(list(g.nodes()), rng.randrange(1, n))
        assert vector_hop_distances(g, sources) == bfs_oracle(g, sources)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("shape", ["plain", "mixed-ids", "disconnected"])
    def test_engines_agree_across_the_threshold(self, n, shape):
        positions = {
            "plain": scattered(n, 9),
            "mixed-ids": mixed_ids(scattered(n, 9)),
            "disconnected": two_islands(n),
        }[shape]
        g = UnitDiskGraph(positions)
        nodes = list(g.nodes())
        expected = bfs_oracle(g, nodes)
        assert vector_hop_distances(g, nodes) == expected
        assert all_pairs_hop_distances(g) == expected
        sources = nodes[::3]
        assert multi_source_hop_distances(g, sources) == bfs_oracle(g, sources)

    def test_disconnected_pairs_are_absent(self):
        g = build_udg([(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)])
        result = vector_hop_distances(g, [0, 1, 2])
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
        assert vector_hop_distances(build_udg({}), []) == {}
        lonely = build_udg([(0.0, 0.0), (5.0, 5.0)])
        assert vector_hop_distances(lonely, [0, 1]) == {0: {0: 0}, 1: {1: 0}}

    def test_more_than_64_sources_crosses_word_boundary(self):
        # The bitsets pack sources 64 per uint64 word; a graph bigger
        # than one word exercises the multi-word OR path.
        g = uniform_random_udg(130, 6.0, seed=11)
        nodes = list(g.nodes())
        assert vector_hop_distances(g, nodes) == bfs_oracle(g, nodes)

    def test_hop_stats_engines_agree(self):
        # Ordered pairs of a path sum to n(n^2 - 1)/3 hops, so the mean
        # is (n + 1)/3, whichever engine the size rule picks.
        for n in (5, AUTO_THRESHOLD + 6):
            stats = hop_distance_stats(line_udg(n))
            assert stats.num_pairs == n * (n - 1)
            assert stats.max_hops == n - 1
            assert stats.mean_hops == pytest.approx((n + 1) / 3)

    def test_dilation_report_engines_agree(self, monkeypatch):
        # Regression: the worst-pair argmax must tie-break identically
        # whichever engine produced the hop dicts (targets visit in
        # canonical order, not dict-insertion order).
        g = uniform_random_udg(80, 5.0, seed=7)
        spanner = algorithm2_centralized(g).spanner(g)
        vector = measure_dilation(g, spanner)
        monkeypatch.setattr(repro.kernels, "AUTO_THRESHOLD", g.num_nodes + 1)
        assert not use_vector(g.num_nodes)
        assert measure_dilation(g, spanner) == vector


def within_oracle(graph, centers, radius):
    return [graph.nodes_within(center, radius) for center in centers]


class TestDiskKernels:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_nodes_within_many_engines_agree(self, seed):
        rng = random.Random(seed)
        g = uniform_random_udg(rng.randrange(0, 90), rng.uniform(1, 6), rng=rng)
        centers = [
            Point(rng.uniform(-1, 7), rng.uniform(-1, 7)) for _ in range(5)
        ]
        radius = rng.choice([0.0, 0.5, 1.3])
        expected = within_oracle(g, centers, radius)
        assert vector_nodes_within(g, centers, radius) == expected
        assert g.nodes_within_many(centers, radius) == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_nodes_within_across_the_threshold(self, n):
        g = UnitDiskGraph(mixed_ids(two_islands(n)))
        centers = [Point(0.5, 0.5), Point(50.5, 0.5), Point(-9.0, -9.0)]
        expected = within_oracle(g, centers, 1.0)
        assert vector_nodes_within(g, centers, 1.0) == expected
        assert g.nodes_within_many(centers, 1.0) == expected

    def test_nodes_within_many_engines_agree_on_mixed_ids(self):
        # The whole deployment's canonical order is repr-keyed ('a',
        # 10, 9); the hits 9 and 10 compare, so each list is [9, 10].
        g = UnitDiskGraph(
            {"a": Point(5.0, 5.0), 9: Point(0.0, 0.0), 10: Point(0.5, 0.0)}, 1.0
        )
        centers = [Point(0.25, 0.0), Point(5.0, 5.0), Point(0.0, 0.0)]
        vector = vector_nodes_within(g, centers, 1.0)
        assert vector == within_oracle(g, centers, 1.0)
        assert vector == [[9, 10], ["a"], [9, 10]]

    def test_vector_nodes_within_rejects_a_negative_radius(self):
        with pytest.raises(ValueError):
            vector_nodes_within(build_udg([(0.0, 0.0)]), [Point(0, 0)], -1.0)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_disk_occupancies_engines_agree(self, seed):
        rng = random.Random(seed)
        points = [
            (rng.uniform(0, 5), rng.uniform(0, 5))
            for _ in range(rng.randrange(0, 60))
        ]
        centers = points[: rng.randrange(0, len(points) + 1)]
        expected = pure_disk_occupancies(points, centers, 1.0)
        kernel = count_points_in_disks(points, centers, 1.0).tolist()
        assert kernel == expected
        assert disk_occupancies(points, centers, 1.0) == expected

    def test_max_disk_occupancy(self):
        points = [(0.0, 0.0), (0.5, 0.0), (0.9, 0.0), (5.0, 5.0)]
        # Around (0.5, 0): all three left points are within radius 1.
        assert max_disk_occupancy(points, 1.0) == 3
        assert max_disk_occupancy([], 1.0) == 0
        # Above the threshold (12 x 12 point pairs) the kernel counts.
        spread = points + [(10.0 + i, 10.0) for i in range(8)]
        assert max_disk_occupancy(spread, 1.0) == 3

    def test_disk_kernels_accept_point_objects(self):
        # Regression: Point is iterable but not array-like, so
        # np.asarray over a list of Points used to raise TypeError.
        points = [Point(0.0, 0.0), Point(0.5, 0.0), Point(0.9, 0.0)]
        tuples = [(p.x, p.y) for p in points]
        assert count_points_in_disks(points, points, 1.0).tolist() == (
            pure_disk_occupancies(tuples, tuples, 1.0)
        )

    def test_density_probe_engines_agree(self):
        # 2 x 2 probes over 10 nodes stay pure; 4 x 4 over 50 vectorize.
        for n, resolution in ((10, 2), (50, 4)):
            g = uniform_random_udg(n, 5.0, seed=9)
            step = 5.0 / resolution
            centers = [
                Point((col + 0.5) * step, (row + 0.5) * step)
                for row in range(resolution)
                for col in range(resolution)
            ]
            hits = within_oracle(g, centers, 1.0)
            assert density_probe(g, 5.0, resolution=resolution) == [
                [len(hits[row * resolution + col]) for col in range(resolution)]
                for row in range(resolution)
            ]


def _udg():
    return connected_random_udg(20, 2.5, seed=1)


REMOVED_KNOBS = {
    "UnitDiskGraph(method=)": lambda: UnitDiskGraph({}, method="grid"),
    "build_udg(method=)": lambda: build_udg([(0, 0)], method="vector"),
    "uniform_random_udg(method=)": lambda: uniform_random_udg(
        3, 2.0, seed=0, method="grid"
    ),
    "connected_random_udg(method=)": lambda: connected_random_udg(
        3, 1.0, seed=0, method="grid"
    ),
    "nodes_within_many(method=)": lambda: _udg().nodes_within_many(
        [Point(0, 0)], 1.0, method="pure"
    ),
    "multi_source_hop_distances(method=)": lambda: multi_source_hop_distances(
        _udg(), [0], method="pure"
    ),
    "all_pairs_hop_distances(method=)": lambda: all_pairs_hop_distances(
        _udg(), method="pure"
    ),
    "hop_distance_stats(method=)": lambda: hop_distance_stats(_udg(), method="pure"),
    "measure_dilation(kernels=)": lambda: measure_dilation(
        _udg(), _udg(), kernels="pure"
    ),
    "sampled_dilation(kernels=)": lambda: sampled_dilation(
        _udg(), _udg(), 2, kernels="pure"
    ),
    "disk_occupancies(method=)": lambda: disk_occupancies(
        [(0, 0)], [(0, 0)], 1.0, method="pure"
    ),
    "max_disk_occupancy(method=)": lambda: max_disk_occupancy(
        [(0, 0)], 1.0, method="pure"
    ),
    "greedy_mwds(method=)": lambda: greedy_mwds(_udg(), method="pure"),
    "greedy_mwds_wcds(method=)": lambda: greedy_mwds_wcds(_udg(), method="pure"),
    "density_probe(method=)": lambda: density_probe(_udg(), 2.5, method="pure"),
}


@pytest.mark.parametrize("knob", sorted(REMOVED_KNOBS))
def test_removed_knobs_are_rejected(knob):
    # One size rule picks every twin; no caller chooses an engine.
    with pytest.raises(TypeError):
        REMOVED_KNOBS[knob]()
