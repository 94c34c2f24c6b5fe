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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs import connected_random_udg
from repro.shard import MIN_HALO_RADII, ShardConfig, ShardedBackbone, Tiler, build_sharded
from repro.shard.bench import jittered_grid
from repro.wcds.algorithm2 import algorithm2_centralized


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
        assert config.tile_size > 0 and config.halo >= MIN_HALO_RADII

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0.0},
            {"tile_size": -1.0},
            {"halo": 2.9},
            {"workers": -1},
            {"batch_size": 0},
            {"method": "gpu"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)


# ----------------------------------------------------------------------
# Tiling geometry
# ----------------------------------------------------------------------
class TestTiler:
    @pytest.fixture()
    def graph(self):
        return dense_udg(120, 6.0, seed=3)

    def test_pure_and_vector_builds_identical(self, graph):
        pure = Tiler(graph.positions, graph.radius,
                     ShardConfig(tile_size=4.0, method="pure"))
        vector = Tiler(graph.positions, graph.radius,
                       ShardConfig(tile_size=4.0, method="vector"))
        assert pure.tiles() == vector.tiles()
        assert pure.owner == vector.owner
        for tile in pure.tiles():
            assert pure.owned(tile) == vector.owned(tile)
            assert pure.halo(tile) == vector.halo(tile)
            assert pure.frontier(tile) == vector.frontier(tile)

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
        from repro.shard.tiler import rect_distance_squared

        limit = tiler.halo_width**2
        for tile in tiler.tiles():
            rect = tiler.rect(tile)
            expected = {
                node
                for node, pos in graph.positions.items()
                if tiler.owner[node] != tile
                and rect_distance_squared(pos.x, pos.y, rect) <= limit
            }
            assert set(tiler.halo(tile)) == expected

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

    def test_churn_reindex_matches_fresh_build(self, graph):
        config = ShardConfig(tile_size=4.0)
        tiler = Tiler(graph.positions, graph.radius, config)
        node = sorted(graph.positions)[0]
        graph.move_node(node, Point(3.1, 2.7))
        tiler.on_node_moved(node)
        fresh = Tiler(graph.positions, graph.radius, config)
        assert tiler.owner == fresh.owner
        for tile in fresh.tiles():
            assert tiler.owned(tile) == fresh.owned(tile)
            assert tiler.halo(tile) == fresh.halo(tile)

    def test_remove_last_node_retires_tile(self, graph):
        config = ShardConfig(tile_size=4.0)
        tiler = Tiler(graph.positions, graph.radius, config)
        # empty one tile by removing all its owned nodes
        tile = tiler.tiles()[0]
        for node in list(tiler.owned(tile)):
            graph.remove_node(node)
            tiler.on_node_removed(node)
        assert tile not in tiler.tiles()
        fresh = Tiler(graph.positions, graph.radius, config)
        assert tiler.owner == fresh.owner


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

    def test_invalidation_report_shape(self):
        graph = dense_udg(80, 5.0, seed=9)
        backbone = ShardedBackbone(graph, ShardConfig(tile_size=5.0))
        node = sorted(graph.positions)[0]
        pos = graph.positions[node]
        report = backbone.apply_move(node, Point(pos.x + 0.05, pos.y + 0.05))
        assert report.node == node and report.event == "move"
        assert report.rounds >= 1
        assert set(report.cascaded).isdisjoint(report.seed_tiles)
