"""Distributed MIS protocol: equivalence with the centralized greedy
under any latency model, and its message accounting."""

import pytest
from hypothesis import given, settings

from repro.graphs import Graph, line_udg
from repro.mis import greedy_mis, level_ranking, run_mis
from repro.sim import SimConfig, UniformLatency

from tutils import dense_connected_udg, seeds


def _mis(g, ranking=None, **kwargs):
    """(MIS set, stats) from the unified entry point."""
    result = run_mis(g, ranking, **kwargs)
    return set(result.dominators), result.meta["stats"]


class TestEquivalenceWithCentralized:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_synchronous_matches_greedy(self, seed):
        g = dense_connected_udg(30, seed)
        mis, _ = _mis(g)
        assert mis == greedy_mis(g)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_asynchronous_matches_greedy(self, seed):
        # The outcome is latency-independent: a node's decision depends
        # only on lower-ranked neighbors' declarations.
        g = dense_connected_udg(30, seed)
        mis, _ = _mis(g, sim=SimConfig(latency=UniformLatency(seed=seed)))
        assert mis == greedy_mis(g)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_custom_ranking_matches_greedy(self, seed):
        g = dense_connected_udg(25, seed)
        levels = {node: node % 4 for node in g.nodes()}
        ranking = level_ranking(g, levels)
        mis, _ = _mis(g, ranking)
        assert mis == greedy_mis(g, ranking)


class TestMessageAccounting:
    def test_exactly_one_declaration_per_node(self, small_udg):
        _, stats = _mis(small_udg)
        assert stats.messages_sent == small_udg.num_nodes
        assert stats.max_messages_per_node() == 1

    def test_kinds_partition_nodes(self, small_udg):
        mis, stats = _mis(small_udg)
        assert stats.by_kind["BLACK"] == len(mis)
        assert stats.by_kind["GRAY"] == small_udg.num_nodes - len(mis)


class TestWorstCaseTime:
    def test_chain_is_sequential(self):
        # Theorem 12's worst case: ascending ids on a chain force node
        # i to wait for node i-1 -> Theta(n) time.
        n = 25
        g = line_udg(n)
        _, stats = _mis(g)
        assert stats.finish_time >= n - 2

    def test_star_is_constant_time(self):
        g = Graph(edges=[(0, leaf) for leaf in range(1, 20)])
        _, stats = _mis(g)
        assert stats.finish_time <= 3


class TestEdgeCases:
    def test_single_node(self):
        mis, _ = _mis(Graph(nodes=[3]))
        assert mis == {3}

    def test_two_cliques_bridge(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        mis, _ = _mis(g)
        assert mis == greedy_mis(g)

    def test_invalid_ranking_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(ValueError):
            run_mis(g, {0: 1, 1: 1})
