"""Tests for baseline algorithms: greedy WCDS, greedy CDS, Wu-Li
marking, MIS-tree CDS, and the exact branch & bound."""

import itertools

import pytest
from hypothesis import given, settings

from repro.baselines import (
    certify_wcds_optimality,
    exact_minimum_cds,
    exact_minimum_dominating_set,
    exact_minimum_wcds,
    greedy_cds,
    greedy_wcds,
    mis_tree_cds,
    wu_li_cds,
)
from repro.graphs import Graph, connected_random_udg, grid_udg, is_connected, line_udg
from repro.mis import is_dominating_set
from repro.wcds import is_weakly_connected_dominating_set

from tutils import dense_connected_udg, seeds


class TestGreedyWcds:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_produces_valid_wcds(self, seed):
        g = dense_connected_udg(25, seed)
        result = greedy_wcds(g)
        assert is_weakly_connected_dominating_set(g, result.dominators)

    def test_star(self, star_graph):
        assert set(greedy_wcds(star_graph).dominators) == {0}

    def test_path(self, path_graph):
        result = greedy_wcds(path_graph)
        assert is_weakly_connected_dominating_set(path_graph, result.dominators)
        assert result.size <= 2

    def test_single_node(self):
        assert set(greedy_wcds(Graph(nodes=[9])).dominators) == {9}

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            greedy_wcds(Graph(nodes=[1, 2]))

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_near_optimal_on_small_instances(self, seed):
        g = dense_connected_udg(12, seed)
        greedy = greedy_wcds(g).size
        opt = len(exact_minimum_wcds(g))
        assert opt <= greedy <= 3 * opt  # ln(Delta) slack, generous


class TestGreedyCds:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_produces_connected_dominating_set(self, seed):
        g = dense_connected_udg(25, seed)
        cds = greedy_cds(g)
        assert is_dominating_set(g, cds)
        assert is_connected(g.subgraph(cds))

    def test_single_and_pair(self):
        assert greedy_cds(Graph(nodes=[0])) == {0}
        assert len(greedy_cds(Graph(edges=[(0, 1)]))) == 1

    def test_path(self, path_graph):
        cds = greedy_cds(path_graph)
        assert cds == {1, 2, 3}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            greedy_cds(Graph())


class TestWuLi:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_produces_connected_dominating_set(self, seed):
        g = dense_connected_udg(25, seed)
        cds = wu_li_cds(g)
        assert is_dominating_set(g, cds)
        assert is_connected(g.subgraph(cds))

    def test_marking_without_pruning_is_larger(self, medium_udg):
        unpruned = wu_li_cds(medium_udg, prune=False)
        pruned = wu_li_cds(medium_udg)
        assert len(pruned) <= len(unpruned)

    def test_complete_graph(self):
        g = Graph(edges=list(itertools.combinations(range(5), 2)))
        assert len(wu_li_cds(g)) == 1

    def test_path_marks_internal_nodes(self, path_graph):
        cds = wu_li_cds(path_graph, prune=False)
        assert cds == {1, 2, 3}

    def test_tiny_graphs(self):
        assert wu_li_cds(Graph(nodes=[4])) == {4}
        assert wu_li_cds(Graph(edges=[(1, 2)])) == {1}


class TestMisTreeCds:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_produces_connected_dominating_set(self, seed):
        g = dense_connected_udg(25, seed)
        cds = mis_tree_cds(g)
        assert is_dominating_set(g, cds)
        assert is_connected(g.subgraph(cds))

    def test_single_node(self):
        assert mis_tree_cds(Graph(nodes=[0])) == {0}

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_contains_the_mis(self, seed):
        from repro.mis import greedy_mis

        g = dense_connected_udg(20, seed)
        assert greedy_mis(g) <= mis_tree_cds(g)

    @pytest.mark.parametrize("side", [7.0, 5.5])
    def test_connectors_ignore_adjacency_order(self, side):
        # The same graph with its edges inserted in two orders: the
        # adjacency sets iterate differently (as they do between the
        # grid and the vector UDG builders), the chosen connectors must
        # not.  Picking the first shortest path a set yields gave 59 vs
        # 60 and 48 vs 49 nodes here.
        udg = connected_random_udg(150, side, seed=4)
        edges = sorted(tuple(sorted(edge)) for edge in udg.edges())
        nodes = sorted(udg.nodes())
        forward = Graph(nodes=nodes, edges=edges)
        backward = Graph(nodes=nodes, edges=edges[::-1])
        assert mis_tree_cds(forward) == mis_tree_cds(backward) == mis_tree_cds(udg)


class TestExactSolvers:
    def test_path_optima(self, path_graph):
        # P5: MDS = {1, 3}; the minimum WCDS is also size 2 ({1, 3}: its
        # black edges cover the whole path); MCDS = {1, 2, 3}.
        assert len(exact_minimum_dominating_set(path_graph)) == 2
        assert len(exact_minimum_wcds(path_graph)) == 2
        assert len(exact_minimum_cds(path_graph)) == 3

    def test_star_optima(self, star_graph):
        assert len(exact_minimum_dominating_set(star_graph)) == 1
        assert len(exact_minimum_wcds(star_graph)) == 1
        assert len(exact_minimum_cds(star_graph)) == 1

    def test_results_are_valid(self, path_graph):
        wcds = exact_minimum_wcds(path_graph)
        assert is_weakly_connected_dominating_set(path_graph, wcds)
        cds = exact_minimum_cds(path_graph)
        assert is_dominating_set(path_graph, cds)
        assert is_connected(path_graph.subgraph(cds))

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_sandwich_inequality(self, seed):
        # |MDS| <= |MWCDS| <= |MCDS| (each feasible set of the right is
        # feasible on the left).
        g = dense_connected_udg(11, seed)
        mds = len(exact_minimum_dominating_set(g))
        mwcds = len(exact_minimum_wcds(g))
        mcds = len(exact_minimum_cds(g))
        assert mds <= mwcds <= mcds

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_matches_brute_force_on_tiny_graphs(self, seed):
        g = dense_connected_udg(8, seed)
        opt = len(exact_minimum_wcds(g))
        # Brute force over all subsets.
        nodes = sorted(g.nodes())
        brute = None
        for k in range(1, len(nodes) + 1):
            if any(
                is_weakly_connected_dominating_set(g, set(combo))
                for combo in itertools.combinations(nodes, k)
            ):
                brute = k
                break
        assert opt == brute

    def test_certify_optimality(self, path_graph):
        assert certify_wcds_optimality(path_graph, 2)
        assert not certify_wcds_optimality(path_graph, 3)

    def test_max_size_cap(self, path_graph):
        with pytest.raises(RuntimeError):
            exact_minimum_wcds(path_graph, max_size=1)

    def test_grid_wcds_smaller_than_cds(self):
        g = grid_udg(3, 3, spacing=0.9)
        assert len(exact_minimum_wcds(g)) <= len(exact_minimum_cds(g))

    def test_chain_wcds_half_of_cds(self):
        # On a path P_n the MCDS is the n-2 interior nodes while a WCDS
        # can skip every other one — the cleanest size separation.
        g = line_udg(9)
        assert len(exact_minimum_cds(g)) == 7
        assert len(exact_minimum_wcds(g)) <= 4
