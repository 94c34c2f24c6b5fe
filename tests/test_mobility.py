"""Tests for random-waypoint mobility and local WCDS maintenance."""

import random

import pytest
from hypothesis import given, settings

from repro.graphs import connected_random_udg, is_connected
from repro.mis import is_dominating_set, is_independent_set
from repro.mobility import (
    LinkEvents,
    MaintainedWCDS,
    MaintenanceReport,
    RandomWaypointModel,
)

from tutils import seeds


class TestLinkEvents:
    def test_endpoints_and_emptiness(self):
        events = LinkEvents(gained=((1, 2),), lost=((3, 4), (4, 5)))
        assert events.endpoints == {1, 2, 3, 4, 5}
        assert not events.is_empty
        assert LinkEvents(gained=(), lost=()).is_empty


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


class TestMaintainedWCDS:
    def test_initial_state_is_valid(self):
        g = connected_random_udg(30, 4.0, seed=6)
        maintained = MaintainedWCDS(g)
        assert maintained.is_valid()
        result = maintained.result()
        assert result.mis_dominators and not (
            result.mis_dominators & result.additional_dominators
        )

    def test_empty_events_are_noop(self):
        g = connected_random_udg(20, 3.5, seed=7)
        maintained = MaintainedWCDS(g)
        before = (set(maintained.mis), dict(maintained.connectors))
        report = maintained.apply_events(LinkEvents(gained=(), lost=()))
        assert report.touched == set()
        assert (set(maintained.mis), dict(maintained.connectors)) == before

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_stays_valid_under_mobility(self, seed):
        g = connected_random_udg(25, 3.5, seed=seed)
        maintained = MaintainedWCDS(g)
        model = RandomWaypointModel(g, 3.5, speed_range=(0.1, 0.3), seed=seed)
        for _ in range(15):
            events = model.step()
            maintained.apply_events(events)
            assert maintained.is_valid()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_mis_invariants_maintained(self, seed):
        g = connected_random_udg(25, 3.5, seed=seed)
        maintained = MaintainedWCDS(g)
        model = RandomWaypointModel(g, 3.5, speed_range=(0.1, 0.3), seed=seed)
        for _ in range(10):
            maintained.apply_events(model.step())
            assert is_independent_set(g, maintained.mis)
            assert is_dominating_set(g, maintained.mis | maintained.additional)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_changes_are_local(self, seed):
        # The paper's locality claim: affected nodes are within 3 hops
        # of the change (we allow 4 for the cascaded coverage repair of
        # a demotion, measured from the post-move topology).
        g = connected_random_udg(30, 4.0, seed=seed)
        maintained = MaintainedWCDS(g)
        model = RandomWaypointModel(g, 4.0, speed_range=(0.05, 0.15), seed=seed)
        for _ in range(10):
            report = maintained.apply_events(model.step())
            assert report.max_distance_to_event <= 4

    def test_report_tracks_roles(self):
        g = connected_random_udg(30, 4.0, seed=8)
        maintained = MaintainedWCDS(g)
        model = RandomWaypointModel(g, 4.0, speed_range=(0.4, 0.6), seed=8)
        saw_change = False
        for _ in range(20):
            report = maintained.apply_events(model.step())
            if report.touched:
                saw_change = True
                assert report.promoted_mis <= maintained.mis | report.demoted_mis
        assert saw_change  # fast movement must eventually change roles


class _PairwiseConnectorRule(MaintainedWCDS):
    """The connector repair as it stood before it called the shared
    kernel: one 3-hop BFS per affected dominator over every MIS node,
    and one 2-hop BFS per pair to pick the minimum intermediate."""

    def _repair_connectors(self, events, report):
        from repro.graphs import bfs_distances

        affected = set(events.endpoints) | report.promoted_mis | report.demoted_mis
        affected_mis = set()
        for node in affected:
            if node not in self.udg:
                continue
            reach = bfs_distances(self.udg, node, cutoff=3)
            affected_mis.update(m for m in reach if m in self.mis)
        before = set(self.connectors.values())
        for pair, via in list(self.connectors.items()):
            u, w = pair
            intact = (
                u in self.mis
                and w in self.mis
                and via in self.udg
                and self.udg.has_edge(u, via)
                and bool(self.udg.adjacency(via) & self.udg.adjacency(w))
            )
            if not intact:
                self.connectors.pop(pair)
                affected_mis.update(n for n in pair if n in self.mis)
        for pair in [p for p in self.connectors if set(p) & (affected_mis | affected)]:
            self.connectors.pop(pair)
        for pair, via in list(self.connectors.items()):
            if via in affected or set(pair) & affected_mis:
                self.connectors.pop(pair, None)
        for u in sorted(affected_mis):
            if u not in self.mis:
                continue
            dist = bfs_distances(self.udg, u, cutoff=3)
            for w in sorted(self.mis):
                if w == u or dist.get(w) != 3:
                    continue
                pair = (u, w) if u < w else (w, u)
                if pair in self.connectors:
                    continue
                dist_w = bfs_distances(self.udg, pair[1], cutoff=2)
                candidates = [
                    v
                    for v in self.udg.adjacency(pair[0])
                    if dist_w.get(v) == 2 and v not in self.mis
                ]
                if candidates:
                    self.connectors[pair] = min(candidates)
        after = set(self.connectors.values())
        report.added_connectors.update(after - before - self.mis)
        report.removed_connectors.update(before - after - self.mis)


class TestConnectorRule:
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_repair_matches_pairwise_picks(self, seed):
        # One seeded stream of waypoint steps and radios turning off,
        # replayed on two copies of the deployment.
        g = connected_random_udg(40, 4.5, seed=seed)
        ours, reference = MaintainedWCDS(g), _PairwiseConnectorRule(g.copy())
        model = RandomWaypointModel(g, 4.5, speed_range=(0.1, 0.3), seed=seed)
        rng = random.Random(seed)
        pairs = 0
        for _ in range(15):
            events = model.step()
            for node in events.moved:
                reference.udg.move_node(node, g.positions[node])
            ours.apply_events(events)
            reference.apply_events(events)
            if rng.random() < 0.3:
                node = rng.choice(sorted(g.nodes()))
                ours.node_off(node)
                reference.node_off(node)
            assert ours.mis == reference.mis
            assert ours.connectors == reference.connectors
            pairs += len(ours.connectors)
        assert pairs > 0
