"""Tests for MIS rankings and the centralized constructions."""

import random

import pytest
from hypothesis import given, settings

from repro.graphs import Graph, grid_udg
from repro.mis import (
    greedy_mis,
    greedy_mis_dynamic_degree,
    id_ranking,
    is_maximal_independent_set,
    level_ranking,
    mis_coloring,
    rank_by,
    run_mis,
    validate_ranking,
)
from repro.wcds import algorithm2_distributed

from tutils import dense_connected_udg, seeds, small_sizes


class TestRankings:
    def test_id_ranking_orders_by_id(self):
        g = Graph(nodes=[3, 1, 2])
        ranks = id_ranking(g)
        assert ranks[1] < ranks[2] < ranks[3]

    def test_level_ranking_is_lexicographic(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        ranks = level_ranking(g, {0: 0, 1: 1, 2: 2})
        assert ranks[0] < ranks[1] < ranks[2]
        # Same level: id breaks the tie.
        g2 = Graph(edges=[(0, 1), (0, 2)])
        ranks2 = level_ranking(g2, {0: 0, 1: 1, 2: 1})
        assert ranks2[1] < ranks2[2]

    def test_level_ranking_missing_level(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(ValueError):
            level_ranking(g, {0: 0})

    def test_rank_by_breaks_key_ties_by_id(self):
        ranks = rank_by([4, 2, 3, 1], lambda n: n % 2)
        assert ranks == {2: 0, 4: 1, 1: 2, 3: 3}

    def test_validate_rejects_partial(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(ValueError):
            validate_ranking(g, {0: 0})

    def test_validate_rejects_duplicates(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(ValueError):
            validate_ranking(g, {0: 7, 1: 7})


class TestGreedyMis:
    def test_star_low_center(self, star_graph):
        # Center 0 has the lowest id: it is picked, leaves all gray.
        assert greedy_mis(star_graph) == {0}

    def test_star_high_center(self):
        g = Graph(edges=[(9, leaf) for leaf in range(5)])
        # Leaves all have lower ids and are pairwise non-adjacent.
        assert greedy_mis(g) == {0, 1, 2, 3, 4}

    def test_path_by_id(self, path_graph):
        assert greedy_mis(path_graph) == {0, 2, 4}

    def test_respects_custom_ranking(self, path_graph):
        ranks = {0: 4, 1: 0, 2: 3, 3: 1, 4: 2}
        assert greedy_mis(path_graph, ranks) == {1, 3}

    def test_empty_graph(self):
        assert greedy_mis(Graph()) == set()

    def test_isolated_nodes_all_selected(self):
        g = Graph(nodes=[5, 6, 7])
        assert greedy_mis(g) == {5, 6, 7}

    @given(seeds, small_sizes)
    @settings(max_examples=40, deadline=None)
    def test_result_is_maximal_independent(self, seed, size):
        g = dense_connected_udg(max(size, 2), seed)
        mis = greedy_mis(g)
        assert is_maximal_independent_set(g, mis)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, seed):
        g = dense_connected_udg(20, seed)
        assert greedy_mis(g) == greedy_mis(g)

    @given(seeds, small_sizes)
    @settings(max_examples=40, deadline=None)
    def test_default_equals_the_id_ranking(self, seed, size):
        # Sorting the ids directly is the id ranking, also on ids that
        # are not in insertion order: relabel by a seeded shuffle.
        g = dense_connected_udg(max(size, 2), seed)
        ids = random.Random(seed).sample(range(-1000, 1000), g.num_nodes)
        label = dict(zip(sorted(g.nodes()), ids))
        relabelled = Graph(
            nodes=[label[v] for v in g.nodes()],
            edges=[(label[u], label[v]) for u, v in g.edges()],
        )
        for graph in (g, relabelled):
            assert greedy_mis(graph) == greedy_mis(graph, id_ranking(graph))
        # Both rankings are the int positions 0..n-1 of one sort.
        nodes = list(relabelled.nodes())
        positions = list(range(len(nodes)))
        by_id = id_ranking(relabelled)
        assert [by_id[v] for v in sorted(ids)] == positions
        levels = {v: abs(v) % 3 for v in nodes}
        by_level = level_ranking(relabelled, levels)
        order = sorted(nodes, key=lambda v: (levels[v], v))
        assert [by_level[v] for v in order] == positions

    def test_mixed_ids_raise_type_error(self):
        g = Graph(edges=[(1, "a"), ("a", 2)])
        with pytest.raises(TypeError):
            greedy_mis(g)
        with pytest.raises(TypeError):
            id_ranking(g)
        with pytest.raises(TypeError):
            run_mis(g)
        with pytest.raises(TypeError):
            algorithm2_distributed(g)


class TestDynamicDegreeMis:
    def test_star_center_first(self):
        # Center 9 has max white degree even though its id is largest.
        g = Graph(edges=[(9, leaf) for leaf in range(5)])
        assert greedy_mis_dynamic_degree(g) == {9}

    def test_path(self, path_graph):
        # White degrees: 1,2,2,2,1 -> node 1 (lowest id among degree-2)
        # first, then 3 and ... node 3 has white degree 1 after 1 is
        # chosen (2 gray); nodes 3,4 white; 3 has white-degree 1, 4 has
        # white-degree 1 -> id order picks 3; 4 grayed.
        assert greedy_mis_dynamic_degree(path_graph) == {1, 3}

    @given(seeds, small_sizes)
    @settings(max_examples=30, deadline=None)
    def test_is_maximal_independent(self, seed, size):
        g = dense_connected_udg(max(size, 2), seed)
        mis = greedy_mis_dynamic_degree(g)
        assert is_maximal_independent_set(g, mis)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_tends_not_larger_than_needed(self, seed):
        # Degree-greedy usually gives an MIS no larger than ~the
        # id-greedy one plus slack; loose sanity envelope.
        g = dense_connected_udg(30, seed)
        dynamic = greedy_mis_dynamic_degree(g)
        static = greedy_mis(g)
        assert len(dynamic) <= 2 * len(static)


class TestMisColoring:
    def test_colors(self, path_graph):
        colors = mis_coloring(path_graph, {0, 2, 4})
        assert colors == {0: "black", 1: "gray", 2: "black", 3: "gray", 4: "black"}

    def test_grid_coloring_total(self):
        g = grid_udg(4, 4)
        mis = greedy_mis(g)
        colors = mis_coloring(g, mis)
        assert len(colors) == 16
        assert sum(1 for c in colors.values() if c == "black") == len(mis)
