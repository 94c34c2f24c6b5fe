"""Tests for random-waypoint mobility and WCDS maintenance under it."""

import random

import pytest
from hypothesis import given, settings

from repro.geometry import Point
from repro.graphs import connected_random_udg, jittered_grid, set_distance
from repro.mis import greedy_mis, is_dominating_set, is_independent_set
from repro.mobility import LinkEvents, RandomWaypointModel
from repro.shard import ShardedBackbone
from repro.wcds import algorithm2_centralized

from test_connectors import centralized_bfs_connectors
from tutils import assert_valid_and_exact, note_step, seeds


class TestLinkEvents:
    def test_endpoints_and_emptiness(self):
        events = LinkEvents(gained=((1, 2),), lost=((3, 4), (4, 5)))
        assert events.endpoints == {1, 2, 3, 4, 5}


class TestRandomWaypoint:
    def test_positions_stay_in_box(self):
        g = connected_random_udg(20, 4.0, seed=1)
        model = RandomWaypointModel(g, 4.0, seed=1)
        for _ in range(50):
            model.step()
        for pos in g.positions.values():
            assert -1e-9 <= pos.x <= 4.0 + 1e-9
            assert -1e-9 <= pos.y <= 4.0 + 1e-9

    def test_movement_changes_positions(self):
        g = connected_random_udg(10, 3.0, seed=2)
        before = dict(g.positions)
        RandomWaypointModel(g, 3.0, seed=2).step()
        assert before != g.positions

    def test_pause_steps_freeze_nodes(self):
        g = connected_random_udg(10, 3.0, seed=3)
        model = RandomWaypointModel(
            g, 3.0, speed_range=(10.0, 10.0), pause_steps=1000, seed=3
        )
        model.step()  # every node reaches its waypoint, then pauses
        frozen = dict(g.positions)
        model.step()
        assert g.positions == frozen

    def test_speed_validation(self):
        g = connected_random_udg(5, 2.0, seed=4)
        with pytest.raises(ValueError):
            RandomWaypointModel(g, 2.0, speed_range=(0, 1))
        with pytest.raises(ValueError):
            RandomWaypointModel(g, 2.0, speed_range=(2, 1))

    def test_events_match_graph_changes(self):
        g = connected_random_udg(15, 3.0, seed=5)
        model = RandomWaypointModel(g, 3.0, speed_range=(0.3, 0.5), seed=5)
        before = {frozenset(e) for e in g.edges()}
        events = model.step()
        after = {frozenset(e) for e in g.edges()}
        gained = {frozenset(e) for e in events.gained}
        lost = {frozenset(e) for e in events.lost}
        # Events are per-move (an edge can flap within one step), but
        # every NET change must be reported.
        assert after - before <= gained
        assert before - after <= lost


class TestShardedMaintenance:
    """``ShardedBackbone`` maintains exact Algorithm II under mobility,
    noted the service's way, whether the snapshot is connected or not."""

    def test_initial_state_is_valid(self):
        g = connected_random_udg(30, 4.0, seed=6)
        backbone = ShardedBackbone(g)
        assert_valid_and_exact(backbone)
        result = backbone.result()
        assert result.mis_dominators and not (
            result.mis_dominators & result.additional_dominators
        )

    def test_noting_an_unmoved_node_is_a_noop(self):
        g = connected_random_udg(20, 3.5, seed=7)
        backbone = ShardedBackbone(g)
        before = backbone.result()
        report = backbone.note_moved(sorted(g.nodes())[0])
        assert report.flipped == ()
        assert backbone.result() == before

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_stays_valid_under_mobility(self, seed):
        g = connected_random_udg(25, 3.5, seed=seed)
        backbone = ShardedBackbone(g)
        model = RandomWaypointModel(g, 3.5, speed_range=(0.1, 0.3), seed=seed)
        for _ in range(15):
            note_step(backbone, model.step())
            assert_valid_and_exact(backbone)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_mis_invariants_maintained(self, seed):
        g = connected_random_udg(25, 3.5, seed=seed)
        backbone = ShardedBackbone(g)
        model = RandomWaypointModel(g, 3.5, speed_range=(0.1, 0.3), seed=seed)
        for _ in range(10):
            note_step(backbone, model.step())
            mis, dominators = backbone.membership()
            assert is_independent_set(g, mis)
            assert is_dominating_set(g, dominators)

    def test_report_tracks_roles(self):
        # The reports of a step's notes name every node whose MIS or
        # backbone membership the step changed.
        g = connected_random_udg(30, 4.0, seed=8)
        backbone = ShardedBackbone(g)
        model = RandomWaypointModel(g, 4.0, speed_range=(0.4, 0.6), seed=8)
        saw_change = False
        for _ in range(20):
            before = backbone.result()
            reports = note_step(backbone, model.step())
            after = backbone.result()
            net = (before.mis_dominators ^ after.mis_dominators) | (
                before.dominators ^ after.dominators
            )
            assert net <= {node for r in reports for node in r.flipped}
            saw_change |= bool(net)
        assert saw_change  # fast movement must eventually change roles


class TestConnectorRule:
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_repair_matches_pairwise_picks(self, seed):
        # One seeded stream of waypoint steps and radios turning off:
        # after each, the re-stitched MIS and connector picks equal the
        # pairwise BFS rule (one 3-hop BFS per MIS node, one 2-hop BFS
        # per pair, minimum intermediate) run on the whole snapshot.
        g = connected_random_udg(40, 4.5, seed=seed)
        backbone = ShardedBackbone(g)
        model = RandomWaypointModel(g, 4.5, speed_range=(0.1, 0.3), seed=seed)
        rng = random.Random(seed)
        pairs = 0
        for _ in range(15):
            note_step(backbone, model.step())
            if rng.random() < 0.3:
                backbone.apply_leave(rng.choice(sorted(g.nodes())))
            result = backbone.result()
            mis = greedy_mis(g)
            assert result.mis_dominators == mis
            picks = sorted(result.meta["pairs_covered"])
            assert picks == sorted(centralized_bfs_connectors(g, mis))
            pairs += len(picks)
        assert pairs > 0


class TestLocality:
    def test_exact_algorithm2_is_not_3_local(self):
        # Section 4.2 says the nodes a change affects lie within three
        # hops of it.  That holds for a local repair rule, not for the
        # exact lowest-id-first MIS: on a row-major grid one move
        # re-decides a chain of nodes along the row.
        g = jittered_grid(36, 0)
        backbone = ShardedBackbone(g)
        pos = g.positions[24]
        report = backbone.apply_move(24, Point(pos.x - 0.5 * g.radius, pos.y))
        assert len(report.flipped) == 7
        radius = max(set_distance(g, {24}, {node}) for node in report.flipped)
        assert radius == 6
        result, oracle = backbone.result(), algorithm2_centralized(g)
        assert result.mis_dominators == oracle.mis_dominators
        assert result.dominators == oracle.dominators
