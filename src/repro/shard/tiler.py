"""Spatial tiling of a deployment into overlapping shard cells.

The plane is cut into an axis-aligned grid of square *tiles* of side
``config.tile_size`` radii.  Every node is **owned** by exactly one
tile (the cell containing its position).  A tile additionally reads a
**halo**: the nodes within ``config.halo`` radii of its rectangle that
it does not own.  Owned nodes within the same distance of the tile
boundary form the **frontier band** — the only state a tile ever
publishes to its neighbors during stitching.

Geometry is exact and engine-independent: the ``"vector"`` method
(:mod:`repro.kernels.shard`) performs the identical float64 arithmetic
as the pure loops here, so both produce the same tile assignments bit
for bit.

The tiler is mutable under churn: :meth:`on_node_added`,
:meth:`on_node_removed`, and :meth:`on_node_moved` update the owner /
halo / consumer indexes in O(local density), returning the set of
tiles whose view of the world changed — the boundary-only invalidation
set the serve pool rebuilds.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

from repro.geometry.packing import rect_band_packing_bound
from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.shard.config import ShardConfig

Node = Hashable
TileId = Tuple[int, int]
Rect = Tuple[float, float, float, float]


def rect_distance_squared(x: float, y: float, rect: Rect) -> float:
    """Squared distance from a point to a rectangle (0 inside).

    The pure twin of :func:`repro.kernels.shard.rect_distance_squared`
    — same clamping, same float64 operations.
    """
    x0, y0, x1, y1 = rect
    dx = max(max(x0 - x, 0.0), x - x1)
    dy = max(max(y0 - y, 0.0), y - y1)
    return dx * dx + dy * dy


class Tiler:
    """Node-to-tile assignment with halo and frontier extraction."""

    def __init__(
        self,
        positions: Mapping[Node, Point],
        radius: float,
        config: Optional[ShardConfig] = None,
    ) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.config = config or ShardConfig()
        self.radius = radius
        self.positions = positions
        self.side = self.config.tile_size * radius
        self.halo_width = self.config.halo * radius
        #: Cell-index reach of the halo: a node in cell ``c`` can only
        #: be in the halo of tiles within this many cells of ``c``.
        self._reach = int(math.ceil(self.halo_width / self.side))
        self.owner: Dict[Node, TileId] = {}
        self._owned: Dict[TileId, Set[Node]] = {}
        self._halo: Dict[TileId, Set[Node]] = {}
        #: node -> tiles (excluding the owner) whose halo holds it.
        self._consumers: Dict[Node, Set[TileId]] = {}
        #: tile -> its :meth:`publishers`, until an owned node or one of
        #: their consumer sets changes.
        self._publishers: Dict[TileId, List[Tuple[Node, Tuple[TileId, ...]]]] = {}
        #: Tiles whose publisher list was dropped since the last
        #: :meth:`take_replaced_publishers`.
        self._replaced: Set[TileId] = set()
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        from repro.kernels import resolve_method

        choice = resolve_method(self.config.method, size=len(self.positions))
        if choice == "vector":
            self._build_vector()
        else:
            self._build_pure()

    def _build_pure(self) -> None:
        for node in canonical_order(self.positions):
            tile = self.tile_of(self.positions[node])
            self.owner[node] = tile
            self._owned.setdefault(tile, set()).add(node)
        for node, pos in self.positions.items():
            self._index_halo(node, pos)

    def _build_vector(self) -> None:
        from repro.kernels.shard import (
            bin_by_tile,
            rect_distance_squared as vector_rect_d2,
        )

        nodes = list(self.positions)
        coords = [(self.positions[n].x, self.positions[n].y) for n in nodes]
        bins = bin_by_tile(coords, self.side)
        for tile, indexes in bins.items():
            members = {nodes[i] for i in indexes.tolist()}
            self._owned[tile] = members
            for node in members:
                self.owner[node] = tile
        limit = self.halo_width * self.halo_width
        reach = self._reach
        for tile in self._owned:
            tx, ty = tile
            candidates: List[int] = []
            for cx in range(tx - reach, tx + reach + 1):
                for cy in range(ty - reach, ty + reach + 1):
                    if (cx, cy) == tile:
                        continue
                    other = bins.get((cx, cy))
                    if other is not None:
                        candidates.extend(other.tolist())
            if not candidates:
                continue
            cand_coords = [coords[i] for i in candidates]
            d2 = vector_rect_d2(cand_coords, self.rect(tile))
            halo = self._halo.setdefault(tile, set())
            for i, inside in zip(candidates, (d2 <= limit).tolist()):
                if inside:
                    node = nodes[i]
                    halo.add(node)
                    self._consumers.setdefault(node, set()).add(tile)

    def _index_halo(self, node: Node, pos: Point) -> None:
        """Register ``node`` in the halo of every occupied tile whose
        rectangle is within the halo width (excluding its owner)."""
        limit = self.halo_width * self.halo_width
        for tile in self._candidate_tiles(pos):
            if tile == self.owner.get(node) or tile not in self._owned:
                continue
            if rect_distance_squared(pos.x, pos.y, self.rect(tile)) <= limit:
                self._halo.setdefault(tile, set()).add(node)
                self._consumers.setdefault(node, set()).add(tile)

    def _candidate_tiles(self, pos: Point) -> List[TileId]:
        cx, cy = self.tile_of(pos)
        reach = self._reach
        return [
            (tx, ty)
            for tx in range(cx - reach, cx + reach + 1)
            for ty in range(cy - reach, cy + reach + 1)
        ]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def tile_of(self, pos: Point) -> TileId:
        """The tile owning a position."""
        return (
            int(math.floor(pos.x / self.side)),
            int(math.floor(pos.y / self.side)),
        )

    def rect(self, tile: TileId) -> Rect:
        """The tile's rectangle ``(x0, y0, x1, y1)``."""
        tx, ty = tile
        return (tx * self.side, ty * self.side,
                (tx + 1) * self.side, (ty + 1) * self.side)

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def tiles(self) -> Tuple[TileId, ...]:
        """Occupied tiles (tiles owning at least one node), sorted."""
        return tuple(sorted(self._owned))

    def owned(self, tile: TileId) -> List[Node]:
        """Nodes owned by ``tile``, in canonical order."""
        return canonical_order(self._owned.get(tile, ()))

    def halo(self, tile: TileId) -> List[Node]:
        """Halo nodes of ``tile`` (read, not owned), canonical order."""
        return canonical_order(self._halo.get(tile, ()))

    def members(self, tile: TileId) -> List[Node]:
        """Owned plus halo nodes, in canonical order."""
        merged = set(self._owned.get(tile, ()))
        merged.update(self._halo.get(tile, ()))
        return canonical_order(merged)

    def consumers(self, node: Node) -> Tuple[TileId, ...]:
        """Tiles (other than the owner) whose halo contains ``node``."""
        return tuple(sorted(self._consumers.get(node, ())))

    def publishers(self, tile: TileId) -> List[Tuple[Node, Tuple[TileId, ...]]]:
        """``(node, consumers(node))`` for every owned node some other
        tile reads, in canonical order.  Cached per tile; shared, so
        callers must not mutate it."""
        cached = self._publishers.get(tile)
        if cached is None:
            cached = [
                (node, self.consumers(node))
                for node in self.owned(tile)
                if node in self._consumers
            ]
            self._publishers[tile] = cached
        return cached

    def take_replaced_publishers(self) -> Set[TileId]:
        """The tiles whose :meth:`publishers` list changed since the
        last call (their owned nodes or those nodes' consumers), and
        forget them.  A stitch republishes each in full, because some
        tile may have started reading one of its nodes."""
        replaced, self._replaced = self._replaced, set()
        return replaced

    def _drop_publishers(self, tile: TileId) -> None:
        self._publishers.pop(tile, None)
        self._replaced.add(tile)

    def tiles_reading(self, node: Node) -> Tuple[TileId, ...]:
        """Every tile whose computation sees ``node``: owner + consumers."""
        tiles = set(self._consumers.get(node, ()))
        if node in self.owner:
            tiles.add(self.owner[node])
        return tuple(sorted(tiles))

    def frontier(self, tile: TileId) -> List[Node]:
        """Owned nodes within the halo width of the tile boundary.

        This band is the *entire* state the tile can ever publish: a
        node deeper inside the tile is farther than the halo width from
        every other tile's rectangle, so no neighbor reads it.
        """
        x0, y0, x1, y1 = self.rect(tile)
        band = self.halo_width
        found = []
        for node in self._owned.get(tile, ()):
            pos = self.positions[node]
            inner = min(pos.x - x0, x1 - pos.x, pos.y - y0, y1 - pos.y)
            if 0.0 <= inner < band:
                found.append(node)
        return canonical_order(found)

    def interior(self, tile: TileId) -> List[Node]:
        """Owned nodes outside the frontier band (canonical order)."""
        band = set(self.frontier(tile))
        return canonical_order(
            node for node in self._owned.get(tile, ()) if node not in band
        )

    def visible_members(self, tile: TileId) -> Set[Node]:
        """Members whose full unit disk lies inside tile + halo.

        Every unit-disk neighbor of such a node is itself a member, so
        the node's local MIS decision sees its complete neighborhood.
        Owned nodes always qualify (the halo is at least one radius
        wide); halo nodes qualify up to ``halo - 1`` radii out.
        """
        slack = self.halo_width - self.radius
        if slack < 0:  # pragma: no cover - config forbids halo < 1
            return set(self._owned.get(tile, ()))
        limit = slack * slack
        rect = self.rect(tile)
        visible = set(self._owned.get(tile, ()))
        for node in self._halo.get(tile, ()):
            pos = self.positions[node]
            if rect_distance_squared(pos.x, pos.y, rect) <= limit:
                visible.add(node)
        return visible

    def sees_disk(self, tile: TileId, node: Node) -> bool:
        """Whether ``node``, a member of ``tile``, is in its
        :meth:`visible_members` (the same test for one node)."""
        if self.owner.get(node) == tile:
            return True
        slack = self.halo_width - self.radius
        pos = self.positions[node]
        return slack >= 0 and (
            rect_distance_squared(pos.x, pos.y, self.rect(tile)) <= slack * slack
        )

    def frontier_mis_bound(self, tile: TileId) -> int:
        """Lemma 2's packing bound on MIS-dominators in the frontier.

        MIS nodes are pairwise more than one radius apart, so their
        private half-radius disks are disjoint; only as many fit in the
        frontier band as the inflated band's area allows.  This is what
        makes frontier exchange O(perimeter), not O(area): the stitch
        protocol ships a constant number of dominators per boundary
        cell regardless of how dense the deployment is.
        """
        return rect_band_packing_bound(
            self.side, self.side, self.halo_width, separation=self.radius
        )

    # ------------------------------------------------------------------
    # Mutation under churn
    # ------------------------------------------------------------------
    def on_node_added(self, node: Node) -> Set[TileId]:
        """Index a node that just appeared (position already in
        ``self.positions``); returns the tiles whose view changed."""
        pos = self.positions[node]
        tile = self.tile_of(pos)
        created = tile not in self._owned
        self.owner[node] = tile
        self._drop_publishers(tile)
        self._owned.setdefault(tile, set()).add(node)
        if created:
            self._adopt_halo_of_new_tile(tile)
        self._index_halo(node, pos)
        return set(self.tiles_reading(node))

    def on_node_removed(self, node: Node) -> Set[TileId]:
        """Drop a node from every index; returns the affected tiles."""
        affected = set(self.tiles_reading(node))
        tile = self.owner.pop(node, None)
        if tile is not None:
            self._drop_publishers(tile)
            owned = self._owned.get(tile)
            if owned is not None:
                owned.discard(node)
                if not owned:
                    self._retire_tile(tile)
        for consumer in self._consumers.pop(node, set()):
            halo = self._halo.get(consumer)
            if halo is not None:
                halo.discard(node)
        return affected

    def on_node_moved(self, node: Node) -> Set[TileId]:
        """Re-index a node whose position in ``self.positions`` already
        changed; returns the union of old and new affected tiles.

        A node that stays in its owner's cell is re-indexed in the halos
        only: removing it first would retire a tile it owns alone and
        re-collect that tile's halo, whose other nodes may have moved
        without being re-indexed yet."""
        tile = self.owner.get(node)
        pos = self.positions[node]
        if tile is None or tile != self.tile_of(pos):
            affected = self.on_node_removed(node)
            affected |= self.on_node_added(node)
            return affected
        affected = set(self.tiles_reading(node))
        consumers = self._consumers.pop(node, set())
        for consumer in consumers:
            self._halo[consumer].discard(node)
        self._index_halo(node, pos)
        if self._consumers.get(node, set()) != consumers:
            self._drop_publishers(tile)
        affected.update(self.tiles_reading(node))
        return affected

    def _adopt_halo_of_new_tile(self, tile: TileId) -> None:
        """A tile just became occupied: collect its halo from scratch."""
        limit = self.halo_width * self.halo_width
        rect = self.rect(tile)
        tx, ty = tile
        reach = self._reach
        for cx in range(tx - reach, tx + reach + 1):
            for cy in range(ty - reach, ty + reach + 1):
                if (cx, cy) == tile:
                    continue
                for node in self._owned.get((cx, cy), ()):
                    pos = self.positions[node]
                    if rect_distance_squared(pos.x, pos.y, rect) <= limit:
                        self._halo.setdefault(tile, set()).add(node)
                        self._consumers.setdefault(node, set()).add(tile)
                        self._drop_publishers((cx, cy))

    def _retire_tile(self, tile: TileId) -> None:
        """A tile lost its last owned node: forget it entirely."""
        self._owned.pop(tile, None)
        self._drop_publishers(tile)
        for node in self._halo.pop(tile, set()):
            self._drop_publishers(self.owner[node])
            consumers = self._consumers.get(node)
            if consumers is not None:
                consumers.discard(tile)
                if not consumers:
                    del self._consumers[node]

    def __repr__(self) -> str:
        return (
            f"Tiler(tiles={len(self._owned)}, nodes={len(self.owner)}, "
            f"side={self.side}, halo={self.halo_width})"
        )
