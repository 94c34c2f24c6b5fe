"""Tests for the random-direction and Gauss-Markov mobility models."""

import math
import statistics

import pytest
from hypothesis import given, settings

from repro.graphs import connected_random_udg
from repro.geometry import Point
from repro.graphs.udg import UnitDiskGraph
from repro.mobility import (
    GaussMarkovModel,
    RandomDirectionModel,
    RandomWaypointModel,
)
from repro.shard import ShardedBackbone
from repro.mobility.models import _clamp_reflect

from tutils import assert_valid_and_exact, note_step, seeds


class TestClampReflect:
    def test_inside_is_untouched(self):
        assert _clamp_reflect(1.5, 4.0) == (1.5, False)

    def test_below_reflects(self):
        value, reflected = _clamp_reflect(-0.3, 4.0)
        assert value == pytest.approx(0.3)
        assert reflected

    def test_above_reflects(self):
        value, reflected = _clamp_reflect(4.5, 4.0)
        assert value == pytest.approx(3.5)
        assert reflected

    def test_far_overshoot_folds_repeatedly(self):
        value, _ = _clamp_reflect(9.0, 4.0)
        assert 0.0 <= value <= 4.0


class TestRandomDirection:
    def test_positions_stay_in_box(self):
        g = connected_random_udg(20, 4.0, seed=1)
        model = RandomDirectionModel(g, 4.0, speed_range=(0.3, 0.5), seed=1)
        for _ in range(60):
            model.step()
        for pos in g.positions.values():
            assert 0.0 <= pos.x <= 4.0 and 0.0 <= pos.y <= 4.0

    def test_straight_travel_between_reflections(self):
        from repro.graphs import build_udg

        g = build_udg({0: (5.0, 5.0)})
        model = RandomDirectionModel(g, 10.0, speed_range=(0.1, 0.1), seed=2)
        node = 0
        p0 = g.positions[node]
        model.step()
        p1 = g.positions[node]
        model.step()
        p2 = g.positions[node]
        # Without a wall hit, three successive positions are collinear.
        cross = (p1.x - p0.x) * (p2.y - p1.y) - (p1.y - p0.y) * (p2.x - p1.x)
        assert abs(cross) < 1e-9

    def test_speed_validation(self):
        g = connected_random_udg(5, 3.0, seed=3)
        with pytest.raises(ValueError):
            RandomDirectionModel(g, 3.0, speed_range=(0, 1))


class TestGaussMarkov:
    def test_positions_stay_in_box(self):
        g = connected_random_udg(20, 4.0, seed=4)
        model = GaussMarkovModel(g, 4.0, seed=4)
        for _ in range(60):
            model.step()
        for pos in g.positions.values():
            assert 0.0 <= pos.x <= 4.0 and 0.0 <= pos.y <= 4.0

    def test_high_alpha_gives_smooth_headings(self):
        g = connected_random_udg(1, 50.0, seed=5, max_attempts=1000)
        smooth = GaussMarkovModel(g, 50.0, alpha=0.95, seed=5)
        node = next(iter(g.nodes()))
        turns = []
        prev = smooth._heading[node]
        for _ in range(30):
            smooth.step()
            turns.append(abs(smooth._heading[node] - prev))
            prev = smooth._heading[node]
        # With alpha=0.95 the per-step heading change is small.
        assert statistics.fmean(turns) < 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heading_reverts_to_its_mean(self, seed):
        # An AR(1) heading stays within a few sigma of its mean; one
        # that recentres on itself every step is a random walk, which
        # drifts several radians over 500 steps.  A node at the centre
        # of a large square never reaches a wall.
        g = UnitDiskGraph({0: Point(500.0, 500.0)})
        model = GaussMarkovModel(g, 1000.0, seed=seed)
        mean = model._heading[0]
        for _ in range(500):
            model.step()
            assert abs(model._heading[0] - mean) <= 6 * model.heading_sigma

    def test_parameter_validation(self):
        g = connected_random_udg(5, 3.0, seed=6)
        with pytest.raises(ValueError):
            GaussMarkovModel(g, 3.0, alpha=1.0)
        with pytest.raises(ValueError):
            GaussMarkovModel(g, 3.0, mean_speed=0)

    def test_speed_stays_positive(self):
        g = connected_random_udg(10, 3.5, seed=7)
        model = GaussMarkovModel(g, 3.5, alpha=0.1, speed_sigma=0.5, seed=7)
        for _ in range(40):
            model.step()
        assert all(speed > 0 for speed in model._speed.values())


class TestMaintenanceAcrossModels:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: RandomDirectionModel(g, 4.0, speed_range=(0.05, 0.15), seed=8),
            lambda g: GaussMarkovModel(g, 4.0, mean_speed=0.1, seed=8),
        ],
        ids=["random-direction", "gauss-markov"],
    )
    def test_wcds_maintenance_stays_valid(self, factory):
        g = connected_random_udg(30, 4.0, seed=8)
        backbone = ShardedBackbone(g)
        model = factory(g)
        for _ in range(15):
            note_step(backbone, model.step())
            assert_valid_and_exact(backbone)


MODELS = [
    lambda g: RandomWaypointModel(g, 4.0, seed=9),
    lambda g: RandomDirectionModel(g, 4.0, seed=9),
    lambda g: GaussMarkovModel(g, 4.0, seed=9),
]
MODEL_IDS = ["random-waypoint", "random-direction", "gauss-markov"]


class TestJoinedNodes:
    @pytest.mark.parametrize("factory", MODELS, ids=MODEL_IDS)
    def test_a_node_joined_after_construction_moves(self, factory):
        # A node the model has not seen gets its state from the model's
        # own rng on first sight instead of raising KeyError.
        g = connected_random_udg(20, 4.0, seed=9)
        model = factory(g)
        g.add_node_at(999, Point(1.0, 1.0))
        events = model.step()
        assert 999 in events.moved
        assert g.positions[999] != Point(1.0, 1.0)

    @pytest.mark.parametrize(
        "factory, expected",
        list(zip(MODELS, [
            (1.249191947792144, 2.571935966302372),
            (0.20562290936026678, 1.995703092017802),
            (0.2646481049866114, 2.610505476637063),
        ])),
        ids=MODEL_IDS,
    )
    def test_runs_without_joins_are_unchanged(self, factory, expected):
        # First-sight state draws nothing while no node joins: node 0's
        # position after five steps is pinned bit for bit.
        g = connected_random_udg(20, 4.0, seed=9)
        model = factory(g)
        for _ in range(5):
            model.step()
        assert (g.positions[0].x, g.positions[0].y) == expected
