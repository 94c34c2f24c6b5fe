"""The shard subsystem: tiling geometry and frontier stitching.

The load-bearing claim is *exactness*: the tiled, frontier-stitched
construction is bit-identical to ``algorithm2_centralized`` on the
whole deployment (a stronger property than the interior-only oracle
requirement), across tile sizes, seeds, and churn.  Alongside it,
Lemma 2's packing argument bounds what a tile may publish: the
MIS-dominators in a frontier band are at most a constant per boundary
cell, independent of density.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs import connected_random_udg, jittered_grid
from repro.mis.centralized import greedy_mis
from repro.shard import MIN_HALO_RADII, ShardConfig, ShardedBackbone, Tiler, build_sharded
from repro.shard.tiler import rect_distance_squared
from repro.wcds.algorithm2 import algorithm2_centralized

from tutils import dense_connected_udg


def dense_udg(n: int, side: float, seed: int):
    return connected_random_udg(n, side, seed=seed)


def assert_same_backbone(backbone: ShardedBackbone, graph) -> None:
    """The maintained backbone equals a fresh global construction:
    dominators and connector picks."""
    result = backbone.result()
    oracle = algorithm2_centralized(graph)
    assert result.dominators == oracle.dominators
    assert sorted(result.meta["pairs_covered"]) == sorted(
        oracle.meta["pairs_covered"]
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestShardConfig:
    def test_defaults_valid(self):
        config = ShardConfig()
        assert config.tile_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0.0},
            {"tile_size": -1.0},
            {"workers": -1},
            {"batch_size": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_method_is_an_unknown_field(self):
        # The tiler has one build; there is no engine to pick.
        with pytest.raises(TypeError):
            ShardConfig(method="pure")

    @pytest.mark.parametrize("halo", [2.9, MIN_HALO_RADII])
    def test_halo_is_an_unknown_field(self, halo):
        # Every tile reads MIN_HALO_RADII, the exactness floor.
        with pytest.raises(TypeError):
            ShardConfig(halo=halo)


# ----------------------------------------------------------------------
# Tiling geometry
# ----------------------------------------------------------------------
class TestTiler:
    @pytest.fixture()
    def graph(self):
        return dense_udg(120, 6.0, seed=3)

    @staticmethod
    def assert_matches_brute_force(tiler, positions):
        """Owner, halo and visibility indexes equal a per-node scan of
        the deployment: ``tile_of`` for ownership, the rectangle
        distance against the halo width for halo membership, and
        against the halo width less one radius for a visible halo
        node."""
        assert tiler.owner == {
            node: tiler.tile_of(pos) for node, pos in positions.items()
        }
        assert tiler.tiles() == tuple(sorted(set(tiler.owner.values())))
        limit = tiler.halo_width**2
        visible_limit = (tiler.halo_width - tiler.radius) ** 2
        for tile in tiler.tiles():
            rect = tiler.rect(tile)
            halo = {
                node
                for node, pos in positions.items()
                if tiler.owner[node] != tile
                and rect_distance_squared(pos.x, pos.y, rect) <= limit
            }
            assert set(tiler.halo(tile)) == halo
            assert tiler.visible_members(tile) == set(tiler.owned(tile)) | {
                node
                for node in halo
                if rect_distance_squared(*positions[node], rect) <= visible_limit
            }

    @staticmethod
    def scattered(n, seed):
        rng = random.Random(seed)
        return {
            i: Point(rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0))
            for i in range(n)
        }

    @pytest.mark.parametrize("tile_size", [3.5, 8.0])
    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_build_matches_brute_force_oracle(self, n, tile_size):
        positions = self.scattered(n, seed=n)
        tiler = Tiler(positions, 1.0, ShardConfig(tile_size=tile_size))
        self.assert_matches_brute_force(tiler, positions)

    @pytest.mark.parametrize("n", [1, 2, 63])
    def test_churn_stream_matches_brute_force_oracle(self, n):
        positions = self.scattered(n, seed=n)
        tiler = Tiler(positions, 1.0, ShardConfig(tile_size=3.5))
        rng = random.Random(100 + n)
        next_id = n
        for _ in range(60):
            kind = rng.choice(("add", "move", "remove"))
            if kind == "add" or not positions:
                positions[next_id] = Point(rng.uniform(-9, 9), rng.uniform(-9, 9))
                tiler.on_node_added(next_id)
                next_id += 1
            elif kind == "move":
                node = rng.choice(sorted(positions))
                positions[node] = Point(rng.uniform(-9, 9), rng.uniform(-9, 9))
                tiler.on_node_moved(node)
            else:
                node = rng.choice(sorted(positions))
                del positions[node]
                tiler.on_node_removed(node)
            self.assert_matches_brute_force(tiler, positions)

    def test_every_node_owned_exactly_once(self, graph):
        tiler = Tiler(graph.positions, graph.radius, ShardConfig(tile_size=4.0))
        seen = []
        for tile in tiler.tiles():
            seen.extend(tiler.owned(tile))
        assert sorted(seen) == sorted(graph.positions)

    def test_owned_splits_into_frontier_and_interior(self, graph):
        tiler = Tiler(graph.positions, graph.radius, ShardConfig(tile_size=8.0))
        for tile in tiler.tiles():
            frontier = set(tiler.frontier(tile))
            interior = set(tiler.interior(tile))
            assert frontier | interior == set(tiler.owned(tile))
            assert not frontier & interior

    def test_halo_holds_all_foreign_nodes_within_reach(self, graph):
        tiler = Tiler(graph.positions, graph.radius, ShardConfig(tile_size=4.0))
        self.assert_matches_brute_force(tiler, graph.positions)

    def test_consumers_inverse_of_halo(self, graph):
        tiler = Tiler(graph.positions, graph.radius, ShardConfig(tile_size=4.0))
        for tile in tiler.tiles():
            for node in tiler.halo(tile):
                assert tile in tiler.consumers(node)
                assert tile in tiler.tiles_reading(node)

    def test_unit_disk_of_visible_member_is_in_members(self, graph):
        tiler = Tiler(graph.positions, graph.radius, ShardConfig(tile_size=4.0))
        for tile in tiler.tiles():
            members = set(tiler.members(tile))
            for node in tiler.visible_members(tile):
                assert set(graph.adjacency(node)) <= members

    @staticmethod
    def assert_same_indexes(tiler, fresh):
        assert tiler.owner == fresh.owner
        assert tiler.tiles() == fresh.tiles()
        for tile in fresh.tiles():
            assert tiler.owned(tile) == fresh.owned(tile)
            assert tiler.halo(tile) == fresh.halo(tile)
        for node in fresh.owner:
            assert tiler.consumers(node) == fresh.consumers(node)

    def test_churn_reindex_matches_fresh_build(self, graph):
        config = ShardConfig(tile_size=4.0)
        tiler = Tiler(graph.positions, graph.radius, config)
        node = sorted(graph.positions)[0]
        graph.move_node(node, Point(3.1, 2.7))
        tiler.on_node_moved(node)
        self.assert_same_indexes(tiler, Tiler(graph.positions, graph.radius, config))

    def test_remove_last_node_retires_tile(self, graph):
        config = ShardConfig(tile_size=4.0)
        tiler = Tiler(graph.positions, graph.radius, config)
        # empty one tile by removing all its owned nodes
        tile = tiler.tiles()[0]
        for node in list(tiler.owned(tile)):
            graph.remove_node(node)
            tiler.on_node_removed(node)
        assert tile not in tiler.tiles()
        self.assert_same_indexes(tiler, Tiler(graph.positions, graph.radius, config))


# ----------------------------------------------------------------------
# Stitching exactness against the global oracle
# ----------------------------------------------------------------------
class TestStitchOracle:
    @pytest.mark.parametrize("tile_size", [4.0, 8.0, 11.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_global_construction(self, tile_size, seed):
        graph = dense_udg(100, 5.0, seed=seed)
        sharded = build_sharded(graph, ShardConfig(tile_size=tile_size))
        oracle = algorithm2_centralized(graph)
        assert sharded.mis_dominators == oracle.mis_dominators
        assert sharded.additional_dominators == oracle.additional_dominators
        assert sharded.dominators == oracle.dominators
        assert sorted(sharded.meta["pairs_covered"]) == sorted(
            oracle.meta["pairs_covered"]
        )

    def test_interior_membership_equals_oracle(self):
        # The ISSUE's oracle clause, asserted directly: every
        # tile-interior node agrees with the global construction.
        graph = jittered_grid(900, seed=5)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=8.0))
        oracle = algorithm2_centralized(graph)
        checked = 0
        for tile in backbone.tiler.tiles():
            status = backbone.tile_status(tile)
            for node in backbone.tiler.interior(tile):
                assert status[node] is (node in oracle.mis_dominators)
                checked += 1
        assert checked > 0

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        tile_size=st.sampled_from([3.5, 5.0, 8.0, 13.0]),
    )
    def test_equality_property(self, seed, tile_size):
        graph = dense_udg(70, 4.0, seed=seed)
        sharded = build_sharded(graph, ShardConfig(tile_size=tile_size))
        oracle = algorithm2_centralized(graph)
        assert sharded.dominators == oracle.dominators
        assert sorted(sharded.meta["pairs_covered"]) == sorted(
            oracle.meta["pairs_covered"]
        )

    def test_preconditions_mirror_oracle(self):
        from repro.graphs.udg import UnitDiskGraph

        with pytest.raises(ValueError):
            ShardedBackbone(UnitDiskGraph({}, radius=1.0))
        disconnected = UnitDiskGraph(
            {0: Point(0.0, 0.0), 1: Point(5.0, 5.0)}, radius=1.0
        )
        with pytest.raises(ValueError):
            ShardedBackbone(disconnected)

    def test_registry_entry_requires_udg(self):
        import repro.backbone  # noqa: F401 - trigger registrations
        from repro.backbone.registry import build
        from repro.graphs import Graph

        with pytest.raises(TypeError):
            build("wcds-sharded", Graph(edges=[(0, 1)]))

    def test_registry_entry_equals_oracle(self):
        import repro.backbone  # noqa: F401 - trigger registrations
        from repro.backbone.registry import build

        graph = dense_udg(90, 5.0, seed=11)
        result = build("wcds-sharded", graph)
        assert result.algorithm == "wcds-sharded"
        assert result.dominators == algorithm2_centralized(graph).dominators


# ----------------------------------------------------------------------
# Frontier exchange stays within Lemma 2's packing bound
# ----------------------------------------------------------------------
class TestFrontierBound:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_frontier_mis_within_packing_bound(self, seed):
        graph = dense_udg(150, 6.0, seed=seed)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=6.0))
        oracle_mis = algorithm2_centralized(graph).mis_dominators
        for tile in backbone.tiler.tiles():
            frontier_dominators = [
                v for v in backbone.tiler.frontier(tile) if v in oracle_mis
            ]
            bound = backbone.tiler.frontier_mis_bound(tile)
            assert len(frontier_dominators) <= bound

    def test_bound_is_constant_in_density(self):
        # Doubling density must not change the exchange bound: it
        # depends only on the tile geometry and the radio radius.
        sparse = dense_udg(60, 6.0, seed=1)
        crowded = dense_udg(240, 6.0, seed=1)
        config = ShardConfig(tile_size=6.0)
        bound_sparse = Tiler(
            sparse.positions, sparse.radius, config
        ).frontier_mis_bound((0, 0))
        bound_crowded = Tiler(
            crowded.positions, crowded.radius, config
        ).frontier_mis_bound((0, 0))
        assert bound_sparse == bound_crowded


# ----------------------------------------------------------------------
# Churn keeps tracking the oracle, boundary-locally
# ----------------------------------------------------------------------
class TestChurn:
    def test_moves_track_oracle(self, rng):
        graph = dense_udg(100, 5.0, seed=6)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=5.0))
        nodes = sorted(graph.positions)
        for _ in range(8):
            node = nodes[rng.randrange(len(nodes))]
            pos = graph.positions[node]
            target = Point(
                pos.x + rng.uniform(-0.4, 0.4), pos.y + rng.uniform(-0.4, 0.4)
            )
            report = backbone.apply_move(node, target)
            live = set(backbone.tiler.tiles())
            assert set(report.seed_tiles) & live <= set(report.rebuilt)
            assert_same_backbone(backbone, graph)

    def test_join_and_leave_track_oracle(self):
        graph = dense_udg(90, 5.0, seed=8)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=5.0))
        newcomer = max(graph.positions) + 1
        backbone.apply_join(newcomer, Point(2.5, 2.5))
        assert_same_backbone(backbone, graph)
        backbone.apply_leave(newcomer)
        assert_same_backbone(backbone, graph)

    def test_nodes_moved_together_then_noted_one_by_one(self):
        # A mover moves every node before any is noted.  Node 0 owns
        # tile (0, 0) alone and moves within it while node 5 has
        # already moved into that tile's halo: re-indexing node 0 must
        # not retire the tile and re-collect its halo around node 5,
        # which the tile's index does not list yet.
        from repro.graphs.udg import UnitDiskGraph

        graph = UnitDiskGraph({
            0: Point(3.0, 1.0), 1: Point(3.8, 1.0), 2: Point(4.6, 1.0),
            3: Point(5.4, 1.0), 4: Point(6.2, 1.0), 5: Point(6.9, 1.0),
        })
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=3.5))
        assert backbone.tiler.owned((0, 0)) == [0]
        assert 5 not in backbone.tiler.members((0, 0))
        graph.move_node(5, Point(6.45, 1.0))
        graph.move_node(0, Point(2.9, 1.0))
        for node in (0, 5):
            backbone.note_moved(node)
        assert 5 in backbone.tile_index((0, 0)).members
        assert_same_backbone(backbone, graph)

    def test_invalidation_report_shape(self):
        graph = dense_udg(80, 5.0, seed=9)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=5.0))
        node = sorted(graph.positions)[0]
        pos = graph.positions[node]
        report = backbone.apply_move(node, Point(pos.x + 0.05, pos.y + 0.05))
        assert report.node == node and report.event == "move"
        assert report.rounds >= 1
        assert set(report.cascaded).isdisjoint(report.seed_tiles)


# ----------------------------------------------------------------------
# A re-stitch keeps pins and re-passes only what changed
# ----------------------------------------------------------------------
def assert_pins_are_the_mis(backbone: ShardedBackbone) -> None:
    """The pin table holds exactly the live nodes, each at its status in
    the lowest-ID-first MIS."""
    mis = greedy_mis(backbone.graph)
    assert backbone._pins == {v: v in mis for v in backbone.graph.nodes()}


def assert_matches_fresh(backbone: ShardedBackbone) -> None:
    """The pin table, every tile's statuses (halo members included) and
    connectors, and the result, equal those of a fresh construction."""
    assert_pins_are_the_mis(backbone)
    fresh = ShardedBackbone(backbone.graph, backbone.config)
    assert backbone.tiler.tiles() == fresh.tiler.tiles()
    for tile in fresh.tiler.tiles():
        assert backbone.tile_status(tile) == fresh.tile_status(tile)
        assert backbone.tile_connectors(tile) == fresh.tile_connectors(tile)
    result, expected = backbone.result(), fresh.result()
    assert result == expected
    assert result.meta["pairs_covered"] == expected.meta["pairs_covered"]


def membership_flips(before, after) -> set:
    """The nodes that entered or left the MIS or the backbone between
    two results."""
    return (before.mis_dominators ^ after.mis_dominators) | (
        before.dominators ^ after.dominators
    )


def run_churn_stream(backbone: ShardedBackbone, seed: int, events: int) -> int:
    """Seeded moves (up to 0.6 radii per axis), joins and leaves, each
    checked against a fresh construction, and each report's
    ``flipped`` against the membership before and after; returns how
    many moves crossed into another tile."""
    graph = backbone.graph
    rng = random.Random(seed)
    next_id = max(graph.positions) + 1
    crossings = 0
    for _ in range(events):
        nodes = sorted(graph.positions)
        node = nodes[rng.randrange(len(nodes))]
        pos = graph.positions[node]
        target = Point(pos.x + rng.uniform(-0.6, 0.6), pos.y + rng.uniform(-0.6, 0.6))
        kind = rng.random()
        before = backbone.result()
        if kind < 0.7:
            owner = backbone.tiler.owner[node]
            report = backbone.apply_move(node, target)
            crossings += backbone.tiler.owner[node] != owner
        elif kind < 0.85:
            report = backbone.apply_join(next_id, target)
            next_id += 1
        else:
            report = backbone.apply_leave(node)
        assert set(report.flipped) == membership_flips(before, backbone.result())
        assert list(report.flipped) == sorted(report.flipped)
        assert_matches_fresh(backbone)
    return crossings


class TestRestitch:
    def test_move_into_a_tile_whose_halo_held_the_node(self):
        # Node 5 is MIS in tile (0, 0) and tile (1, 0) reads its pin.
        # It moves across the border next to node 1, which is MIS, so
        # (1, 0) now owns it and must compute it OUT instead of reading
        # the pin, and write that to the table; (0, 0) keeps it in its
        # halo.  Both keep their numbering.
        from repro.graphs.udg import UnitDiskGraph

        graph = UnitDiskGraph({
            1: Point(4.6, 1.0), 5: Point(3.3, 1.0), 7: Point(3.95, 1.5),
            8: Point(3.0, 1.6), 9: Point(2.5, 1.0),
        })
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=3.5))
        assert backbone.result().mis_dominators == {1, 5}
        assert 5 in backbone.tiler.halo((1, 0))
        assert backbone._pins[5] is True
        held = {tile: backbone.tile_index(tile) for tile in [(0, 0), (1, 0)]}
        backbone.apply_move(5, Point(3.7, 1.0))
        assert backbone.tiler.owner[5] == (1, 0)
        assert 5 in backbone.tiler.halo((0, 0))
        for tile, tix in held.items():
            assert backbone.tile_index(tile).members is tix.members
        assert backbone._pins[5] is False
        assert backbone.result().mis_dominators == {1, 8}
        assert_matches_fresh(backbone)
        assert_same_backbone(backbone, graph)

    def test_a_pair_goes_when_its_far_end_moves_away_and_leaves_the_mis(self):
        # Leader 1 pairs with MIS node 5 over 1 - 10 - 11 - 5.  Node 5
        # moves to the far end of the chain 4 - 20 - ... - 3, more than
        # three hops from 1, and goes OUT next to node 3.  No flag
        # within three hops of 1 flips, and node 11, which lost its edge
        # to 5, stays OUT (4 dominates it): only 5's flag before the
        # move puts 1 within reach of a changed MIS row.
        from repro.graphs.udg import UnitDiskGraph

        graph = UnitDiskGraph({
            1: Point(0.0, 0.0), 10: Point(0.9, 0.0), 11: Point(1.8, 0.0),
            5: Point(2.7, 0.0), 4: Point(1.8, 0.9), 20: Point(2.7, 0.9),
            21: Point(3.6, 0.9), 22: Point(4.5, 0.9), 23: Point(5.4, 0.9),
            3: Point(6.3, 0.9),
        })
        backbone = ShardedBackbone(graph, ShardConfig())
        assert backbone.result().mis_dominators == {1, 3, 4, 5, 21}
        assert (1, 5, 10) in backbone.result().meta["pairs_covered"]
        backbone.apply_move(5, Point(7.0, 0.9))
        assert backbone.result().mis_dominators == {1, 3, 4, 21}
        assert (1, 5, 10) not in backbone.result().meta["pairs_covered"]
        assert_matches_fresh(backbone)

    def test_a_leader_that_changes_tile_keeping_its_edges(self):
        # Node 200 leads pairs from tile (-1, 0).  A nudge across the
        # border gives it to tile (0, 0) and changes no edge and no
        # flag: the old owner must drop its pairs, the new one pick them.
        graph = jittered_grid(400, 2)
        backbone = ShardedBackbone(graph, ShardConfig())
        assert any(u == 200 for u, _, _ in backbone.tile_connectors((-1, 0)))
        edges = set(graph.adjacency(200))
        backbone.apply_move(200, Point(0.0001, graph.positions[200].y))
        assert set(graph.adjacency(200)) == edges
        assert backbone.tiler.owner[200] == (0, 0)
        assert_matches_fresh(backbone)

    @pytest.mark.parametrize(
        "seed, perturbation",
        [(0, None), (1, None), (2, None), (0, 10), (1, 11), (2, 12)],
    )
    def test_churn_streams_equal_a_fresh_construction(self, seed, perturbation):
        from repro.sim.engine import perturbed_schedule

        with perturbed_schedule(perturbation):
            backbone = ShardedBackbone(jittered_grid(2000, seed), ShardConfig())
            assert run_churn_stream(backbone, seed, 200) > 0

    def test_moves_pass_and_publish_only_what_changed(self):
        # Deterministic work per move on 400 seeded moves of up to 0.3
        # radii: a tenth of the pins that re-sending every verdict of a
        # re-passed tile wrote (320.2 per move), and fewer tile passes
        # (7.49 per move).  The build publishes exactly what it did.
        from repro.obs import MetricsRegistry

        graph = jittered_grid(2000, 0)
        registry = MetricsRegistry()
        backbone = ShardedBackbone(graph, ShardConfig(), registry=registry)
        built = registry.value("shard_pins_published_total")
        assert built == 3492
        # The greedy-MIS seed settles the build in one full pass per
        # tile (42 passes by exchange from empty pins).
        assert registry.value("shard_tile_builds_total", phase="full") == 19
        rng = random.Random(0)
        nodes = sorted(graph.positions)
        moves = 400
        for _ in range(moves):
            node = nodes[rng.randrange(len(nodes))]
            pos = graph.positions[node]
            backbone.apply_move(node, Point(
                pos.x + rng.uniform(-0.3, 0.3), pos.y + rng.uniform(-0.3, 0.3)
            ))
        pins = registry.value("shard_pins_published_total") - built
        assert pins / moves <= 32
        assert registry.value("shard_tile_builds_total", phase="churn") / moves < 7.49
        # Leaders re-selected per move: 18.86 when every leader within
        # two hops of a changed row was, 15.03 when only those whose
        # scan reads a changed edge or flag are (and the moved node).
        leaders = registry.value("shard_connector_leaders_total", scope="ball")
        assert leaders / moves < 16
        assert_same_backbone(backbone, graph)


# ----------------------------------------------------------------------
# The build starts from the greedy-MIS pins and settles in one round
# ----------------------------------------------------------------------
class ExchangeBuild(ShardedBackbone):
    """The build by frontier exchange from empty pins: the oracle the
    seeded build must equal."""

    def _seed_pins(self) -> None:
        pass


class TestSeededBuild:
    @pytest.mark.parametrize("perturbation", [None, 7])
    @pytest.mark.parametrize("tile_size", [3.5, 8.0, 13.0])
    @pytest.mark.parametrize(
        "deployment, seed",
        [("grid", 0), ("grid", 3), ("random", 1), ("random", 4)],
    )
    def test_equals_the_exchange_from_empty_pins(
        self, deployment, seed, tile_size, perturbation
    ):
        from repro.obs import MetricsRegistry
        from repro.sim.engine import perturbed_schedule

        if deployment == "grid":
            graph = jittered_grid(900, seed)
        else:
            graph = dense_connected_udg(400, seed)
        config = ShardConfig(tile_size=tile_size)
        registry = MetricsRegistry()
        with perturbed_schedule(perturbation):
            seeded = ShardedBackbone(graph, config, registry=registry)
            exchanged = ExchangeBuild(graph, config)
        tiles = seeded.tiler.tiles()
        assert tiles == exchanged.tiler.tiles()
        for tile in tiles:
            state, oracle = seeded._tiles[tile], exchanged._tiles[tile]
            assert seeded.tile_status(tile) == exchanged.tile_status(tile)
            assert state.waiting == oracle.waiting == set()
            assert seeded.tile_connectors(tile) == exchanged.tile_connectors(tile)
        assert seeded._pins == exchanged._pins
        assert_pins_are_the_mis(seeded)
        assert seeded.result() == exchanged.result()
        assert exchanged.last_rounds > 1  # the case exercises the exchange
        assert seeded.last_rounds == 1
        assert registry.value("shard_tile_builds_total", phase="full") == len(tiles)
        # The seed delivered every pin to each consumer; the exchange
        # wrote none.
        assert registry.value("shard_pins_published_total") == sum(
            len(seeded.tiler.consumers(v)) for v in graph.nodes()
        )


# ----------------------------------------------------------------------
# A move re-derives only what it touched
# ----------------------------------------------------------------------
def index_fields(tix):
    """A tile index's fields, copied."""
    return (
        list(tix.members), dict(tix.index), list(tix.adj), list(tix.lower),
        bytes(tix.visible),
    )


@st.composite
def churn_events(draw):
    return [
        (
            draw(st.sampled_from(["move", "move", "move", "join", "leave"])),
            draw(st.integers(min_value=0, max_value=10**6)),
            draw(st.floats(min_value=-0.6, max_value=0.6)),
            draw(st.floats(min_value=-0.6, max_value=0.6)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=10)))
    ]


class TestIncrementalIndexes:
    @given(
        seed=st.integers(min_value=0, max_value=40),
        tile_size=st.floats(min_value=3.5, max_value=9.0),
        events=churn_events(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_state_equals_a_fresh_derivation(self, seed, tile_size, events):
        from repro.shard.stitch import _TileIndex

        graph = dense_udg(150, 7.0, seed)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=tile_size))
        tiler = backbone.tiler
        next_id = max(graph.positions) + 1
        for kind, pick, dx, dy in events:
            nodes = sorted(graph.positions)
            node = nodes[pick % len(nodes)]
            pos = graph.positions[node]
            if kind == "move":
                backbone.apply_move(node, Point(pos.x + dx, pos.y + dy))
            elif kind == "join":
                backbone.apply_join(next_id, Point(pos.x + dx, pos.y + dy))
                next_id += 1
            elif len(nodes) > 2:
                backbone.apply_leave(node)
            assert_pins_are_the_mis(backbone)
            for tile in tiler.tiles():
                fresh = _TileIndex(graph, tiler, tile)
                assert index_fields(backbone.tile_index(tile)) == index_fields(fresh)
                full = backbone._tile_connectors(tile, None)
                assert backbone._tiles[tile].connectors == full

    def test_counters_show_what_a_move_recomputed(self):
        from repro.obs import MetricsRegistry

        graph = dense_udg(150, 7.0, seed=2)
        registry = MetricsRegistry()
        backbone = ShardedBackbone(
            graph, ShardConfig(tile_size=3.5), registry=registry
        )
        tiles = len(backbone.tiler.tiles())
        assert registry.value("shard_tile_index_total", how="renumbered") == tiles
        full = registry.value("shard_connector_leaders_total", scope="full")
        assert full == len(backbone.result().mis_dominators)
        node = max(graph.positions, key=lambda v: len(backbone.tiler.tiles_reading(v)))
        pos = graph.positions[node]
        backbone.apply_move(node, Point(pos.x + 0.01, pos.y))
        assert registry.value("shard_tile_index_total", how="renumbered") == tiles
        assert registry.value("shard_tile_index_total", how="patched") == len(
            backbone.tiler.tiles_reading(node)
        )
        assert registry.value("shard_connector_leaders_total", scope="full") == full
        # The nudge kept every edge and flag, so only the moved node, an
        # MIS leader whose owner a move may change, is re-selected; a
        # move that gains an edge re-selects the leaders near it.
        assert registry.value("shard_connector_leaders_total", scope="ball") == 1
        backbone.apply_move(node, Point(pos.x + 0.2, pos.y))
        assert registry.value("shard_connector_leaders_total", scope="ball") > 2
