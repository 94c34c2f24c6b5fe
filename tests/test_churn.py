"""Tests for node on/off churn: UDG mutation and WCDS maintenance.

The paper's maintenance scope is "whenever the nodes move around or
are turned off or on"; these tests cover the on/off half.
"""

import random

import pytest
from hypothesis import given, settings

from repro.geometry import Point
from repro.graphs import build_udg, connected_random_udg
from repro.mis import is_dominating_set, is_independent_set
from repro.shard import ShardedBackbone

from tutils import assert_valid_and_exact, seeds


class TestUdgChurn:
    def test_add_node_at_wires_edges(self):
        g = build_udg([(0, 0), (2, 0)])
        neighbors = g.add_node_at(9, Point(0.5, 0))
        assert neighbors == {0}
        assert g.has_edge(9, 0)
        assert not g.has_edge(9, 1)

    def test_add_duplicate_rejected(self):
        g = build_udg([(0, 0)])
        with pytest.raises(ValueError):
            g.add_node_at(0, Point(1, 1))

    def test_remove_node_drops_position(self):
        g = build_udg([(0, 0), (0.5, 0)])
        g.remove_node(1)
        assert 1 not in g
        assert 1 not in g.positions
        assert g.degree(0) == 0

    def test_add_then_remove_round_trip(self):
        g = build_udg([(0, 0), (0.9, 0)])
        before_edges = g.num_edges
        g.add_node_at(7, Point(0.45, 0.1))
        assert g.degree(7) == 2
        g.remove_node(7)
        assert g.num_edges == before_edges


class TestMaintenanceChurn:
    """Radios turning off and on through ``ShardedBackbone.apply_leave``
    / ``apply_join``: exact Algorithm II on every component after each
    event."""

    def test_turning_off_a_gray_node_is_cheap(self):
        # A gray node decides no MIS status: only connector picks can
        # change when it leaves.
        g = connected_random_udg(30, 4.0, seed=1)
        backbone = ShardedBackbone(g)
        mis = set(backbone.membership()[0])
        gray = sorted(set(g.nodes()) - set(backbone.membership()[1]))[0]
        report = backbone.apply_leave(gray)
        assert set(backbone.membership()[0]) == mis
        assert mis.isdisjoint(report.flipped)
        assert_valid_and_exact(backbone)

    def test_turning_off_a_dominator_repairs_coverage(self):
        g = connected_random_udg(30, 4.0, seed=2)
        backbone = ShardedBackbone(g)
        dominator = sorted(backbone.membership()[0])[0]
        report = backbone.apply_leave(dominator)
        assert dominator in report.flipped
        assert dominator not in backbone.membership()[0]
        assert_valid_and_exact(backbone)

    def test_turning_off_a_connector_reselects(self):
        g = connected_random_udg(40, 4.5, seed=3)
        backbone = ShardedBackbone(g)
        additional = backbone.result().additional_dominators
        if not additional:
            pytest.skip("no connectors on this instance")
        connector = sorted(additional)[0]
        backbone.apply_leave(connector)
        assert connector not in backbone.membership()[1]
        assert_valid_and_exact(backbone)

    def test_turning_on_a_covered_node_changes_little(self):
        g = connected_random_udg(25, 3.5, seed=4)
        backbone = ShardedBackbone(g)
        dominator = sorted(backbone.membership()[0])[0]
        pos = g.positions[dominator]
        backbone.apply_join(999, Point(pos.x + 0.1, pos.y))
        assert 999 not in backbone.membership()[0]  # it hears a dominator: gray
        assert_valid_and_exact(backbone)

    def test_turning_on_an_isolated_node_self_dominates(self):
        g = connected_random_udg(10, 2.5, seed=5)
        backbone = ShardedBackbone(g)
        report = backbone.apply_join(999, Point(100.0, 100.0))
        assert 999 in backbone.membership()[0]
        assert 999 in report.flipped
        assert_valid_and_exact(backbone)  # two components now

    def test_unknown_node_off_raises(self):
        g = connected_random_udg(10, 2.5, seed=6)
        backbone = ShardedBackbone(g)
        with pytest.raises(KeyError):
            backbone.apply_leave(424242)

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_random_churn_storm_stays_valid(self, seed):
        rng = random.Random(seed)
        g = connected_random_udg(30, 4.0, seed=seed)
        backbone = ShardedBackbone(g)
        next_id = 1000
        for _ in range(15):
            if rng.random() < 0.5 and g.num_nodes > 5:
                backbone.apply_leave(rng.choice(sorted(g.nodes())))
            else:
                pos = Point(rng.uniform(0, 4.0), rng.uniform(0, 4.0))
                backbone.apply_join(next_id, pos)
                next_id += 1
            mis, dominators = backbone.membership()
            assert is_independent_set(g, mis)
            assert is_dominating_set(g, dominators)
            assert_valid_and_exact(backbone)
