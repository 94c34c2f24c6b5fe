"""Property tests for Section 2's MIS lemmas on unit-disk graphs."""

import pytest
from hypothesis import given, settings

from repro.geometry import mis_three_hop_bound, mis_two_hop_bound
from repro.graphs import Graph, build_udg
from repro.mis import (
    brute_force_subset_distance_check,
    complementary_subsets_within,
    greedy_mis,
    is_dominating_set,
    is_independent_set,
    is_maximal_independent_set,
    lemma2_extrema,
    max_mis_neighbors,
    min_pairwise_mis_distance,
    mis_neighbor_counts,
    mis_nodes_at_exactly_two_hops,
    mis_nodes_within_three_hops,
    mis_overlay_graph,
    rank_by,
)

from tutils import dense_connected_udg, seeds


class TestSetPredicates:
    def test_independent(self, path_graph):
        assert is_independent_set(path_graph, {0, 2, 4})
        assert not is_independent_set(path_graph, {0, 1})
        assert is_independent_set(path_graph, set())

    def test_dominating(self, path_graph):
        assert is_dominating_set(path_graph, {1, 3})
        assert not is_dominating_set(path_graph, {0})
        assert is_dominating_set(path_graph, {0, 1, 2, 3, 4})

    def test_maximal_independent(self, path_graph):
        assert is_maximal_independent_set(path_graph, {0, 2, 4})
        assert not is_maximal_independent_set(path_graph, {0, 4})  # not maximal
        assert not is_maximal_independent_set(path_graph, {0, 1, 3})  # not indep.


class TestLemma1:
    """Any node not in the MIS has at most 5 MIS neighbors (UDG)."""

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_bound_holds_on_random_udgs(self, seed):
        g = dense_connected_udg(40, seed)
        mis = greedy_mis(g)
        assert max_mis_neighbors(g, mis) <= 5

    def test_five_is_achievable(self):
        # A pentagon of radius ~0.99 around a center: 5 MIS nodes all
        # adjacent to the center, pairwise > 1 apart.
        import math

        pts = {0: (0.0, 0.0)}
        for i in range(5):
            angle = 2 * math.pi * i / 5
            pts[i + 1] = (0.99 * math.cos(angle), 0.99 * math.sin(angle))
        g = build_udg(pts)
        # Rank the outer nodes lower so they are picked first.
        mis = greedy_mis(g, rank_by(g.nodes(), lambda n: n == 0))
        assert mis == {1, 2, 3, 4, 5}
        assert max_mis_neighbors(g, mis) == 5

    def test_counts_cover_all_non_mis(self, small_udg):
        mis = greedy_mis(small_udg)
        counts = mis_neighbor_counts(small_udg, mis)
        assert set(counts) == set(small_udg.nodes()) - mis
        assert all(count >= 1 for count in counts.values())  # dominated


class TestLemma2:
    """Packing bounds on MIS nodes at 2 hops (<=23) and within 3 (<=47)."""

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_extrema_respect_bounds(self, seed):
        g = dense_connected_udg(60, seed)
        mis = greedy_mis(g)
        max_two, max_three = lemma2_extrema(g, mis)
        assert max_two <= mis_two_hop_bound()
        assert max_three <= mis_three_hop_bound()

    def test_per_node_helpers_agree_with_extrema(self, medium_udg):
        mis = greedy_mis(medium_udg)
        max_two, max_three = lemma2_extrema(medium_udg, mis)
        assert max_two == max(
            len(mis_nodes_at_exactly_two_hops(medium_udg, mis, u)) for u in mis
        )
        assert max_three == max(
            len(mis_nodes_within_three_hops(medium_udg, mis, u)) for u in mis
        )

    def test_three_hop_includes_two_hop(self, medium_udg):
        mis = greedy_mis(medium_udg)
        for u in mis:
            two = mis_nodes_at_exactly_two_hops(medium_udg, mis, u)
            three = mis_nodes_within_three_hops(medium_udg, mis, u)
            assert two <= three


class TestLemma3:
    """Complementary MIS subsets are separated by 2 or 3 hops."""

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_any_mis_subsets_within_three_hops(self, seed):
        g = dense_connected_udg(30, seed)
        mis = greedy_mis(g)
        assert complementary_subsets_within(g, mis, 3)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_overlay_shortcut_matches_brute_force(self, seed):
        g = dense_connected_udg(18, seed)
        mis = greedy_mis(g)
        for hops in (2, 3):
            assert complementary_subsets_within(g, mis, hops) == (
                brute_force_subset_distance_check(g, mis, hops)
            )

    def test_min_pairwise_distance_at_least_two(self, medium_udg):
        mis = greedy_mis(medium_udg)
        assert min_pairwise_mis_distance(medium_udg, mis) >= 2

    def test_min_pairwise_requires_two_nodes(self):
        g = Graph(nodes=[0])
        with pytest.raises(ValueError):
            min_pairwise_mis_distance(g, {0})

    def test_two_hop_separation_can_fail_for_id_mis(self):
        # A chain with ids forcing MIS nodes exactly 3 hops apart:
        # 0 - 2 - 3 - 1 as a path graph; id-greedy takes 0 and 1 which
        # are 3 hops apart, so the 2-hop overlay is disconnected.
        g = Graph(edges=[(0, 2), (2, 3), (3, 1)])
        mis = greedy_mis(g)
        assert mis == {0, 1}
        assert not complementary_subsets_within(g, mis, 2)
        assert complementary_subsets_within(g, mis, 3)


class TestOverlayGraph:
    def test_overlay_nodes_are_mis(self, small_udg):
        mis = greedy_mis(small_udg)
        overlay = mis_overlay_graph(small_udg, mis, 3)
        assert set(overlay.nodes()) == mis

    def test_overlay_edges_have_correct_distance(self, small_udg):
        from repro.graphs import hop_distance

        mis = greedy_mis(small_udg)
        overlay = mis_overlay_graph(small_udg, mis, 3)
        for u, v in overlay.edges():
            assert 2 <= hop_distance(small_udg, u, v) <= 3
