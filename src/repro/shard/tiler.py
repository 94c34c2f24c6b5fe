"""Spatial tiling of a deployment into overlapping shard cells.

The plane is cut into an axis-aligned grid of square *tiles* of side
``config.tile_size`` radii.  Every node is **owned** by exactly one
tile (the cell containing its position).  A tile additionally reads a
**halo**: the nodes within :data:`MIN_HALO_RADII` radii of its rectangle that
it does not own.  Owned nodes within the same distance of the tile
boundary form the **frontier band** — the only state a tile ever
publishes to its neighbors during stitching.  The tiler keeps no
stitch state: the stitch asks it only which tiles read a node
(:meth:`Tiler.consumers`), and that is the halo index itself.

The build reads the positions once into an ``(n, 2)`` array and bins
every node in one pass of :mod:`repro.kernels.shard`; per tile, one
rectangle-distance pass over the nodes of the nearby cells yields both
the halo and its *visible* part (the halo nodes whose whole unit disk
the tile reads).  The kernels perform the identical float64 arithmetic
as the per-node :meth:`Tiler.tile_of` and :func:`rect_distance_squared`
the churn updates use, so a built tiler and a churned one agree bit for
bit.

The tiler is mutable under churn: :meth:`on_node_added`,
:meth:`on_node_removed`, and :meth:`on_node_moved` update the owner /
halo / consumer indexes in O(local density), returning the set of
tiles whose view of the world changed — the boundary-only invalidation
set the serve pool rebuilds.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.geometry.packing import rect_band_packing_bound
from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.kernels.shard import bin_by_tile, rect_distance_squared as vector_rect_d2
from repro.shard.config import MIN_HALO_RADII, ShardConfig

Node = Hashable
TileId = Tuple[int, int]
Rect = Tuple[float, float, float, float]


def rect_distance_squared(x: float, y: float, rect: Rect) -> float:
    """Squared distance from a point to a rectangle (0 inside).

    The per-node twin of :func:`repro.kernels.shard.rect_distance_squared`
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
        self.halo_width = MIN_HALO_RADII * radius
        #: Cell-index reach of the halo: a node in cell ``c`` can only
        #: be in the halo of tiles within this many cells of ``c``.
        self._reach = int(math.ceil(self.halo_width / self.side))
        self.owner: Dict[Node, TileId] = {}
        self._owned: Dict[TileId, Set[Node]] = {}
        self._halo: Dict[TileId, Set[Node]] = {}
        #: tile -> the halo nodes whose whole unit disk lies within the
        #: tile's halo (see :meth:`visible_members`).
        self._visible: Dict[TileId, Set[Node]] = {}
        slack = self.halo_width - radius
        #: Squared rectangle distance up to which a halo node is visible;
        #: the halo is three radii wide, so ``slack`` is positive.
        self._visible_limit = slack * slack
        #: node -> tiles (excluding the owner) whose halo holds it.
        self._consumers: Dict[Node, Set[TileId]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        nodes = list(self.positions)
        count = len(nodes)
        points = self.positions.values()
        coords = np.empty((count, 2), dtype=np.float64)
        coords[:, 0] = np.fromiter(map(attrgetter("x"), points), np.float64, count)
        coords[:, 1] = np.fromiter(map(attrgetter("y"), points), np.float64, count)
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
            near = []
            for cx in range(tx - reach, tx + reach + 1):
                for cy in range(ty - reach, ty + reach + 1):
                    other = bins.get((cx, cy))
                    if other is not None and (cx, cy) != tile:
                        near.append(other)
            if not near:
                continue
            candidates = np.concatenate(near)
            d2 = vector_rect_d2(coords[candidates], self.rect(tile))
            seen = d2 <= self._visible_limit
            visible = candidates[seen]
            hidden = candidates[~seen & (d2 <= limit)]
            self._visible[tile] = {nodes[i] for i in visible.tolist()}
            halo = self._halo[tile] = self._visible[tile].union(
                [nodes[i] for i in hidden.tolist()]
            )
            for node in halo:
                self._consumers.setdefault(node, set()).add(tile)

    def _index_halo(self, node: Node, pos: Point) -> None:
        """Register ``node`` in the halo of every occupied tile whose
        rectangle is within the halo width (excluding its owner)."""
        for tile in self._candidate_tiles(pos):
            if tile == self.owner.get(node) or tile not in self._owned:
                continue
            self._read_halo(tile, node, pos)

    def _read_halo(self, tile: TileId, node: Node, pos: Point) -> None:
        """Put ``node`` in ``tile``'s halo (and visible halo) if its
        position is close enough."""
        d2 = rect_distance_squared(pos.x, pos.y, self.rect(tile))
        if d2 > self.halo_width * self.halo_width:
            return
        self._halo.setdefault(tile, set()).add(node)
        if d2 <= self._visible_limit:
            self._visible.setdefault(tile, set()).add(node)
        self._consumers.setdefault(node, set()).add(tile)

    def _unread_halo(self, tile: TileId, node: Node) -> None:
        """Take ``node`` out of ``tile``'s halo and visible halo."""
        self._halo[tile].discard(node)
        visible = self._visible.get(tile)
        if visible is not None:
            visible.discard(node)

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
        return self._owned.get(tile, set()) | self._visible.get(tile, set())

    def sees_disk(self, tile: TileId, node: Node) -> bool:
        """Whether ``node``, a member of ``tile``, is in its
        :meth:`visible_members` (the same test for one node)."""
        if self.owner.get(node) == tile:
            return True
        pos = self.positions[node]
        return (
            rect_distance_squared(pos.x, pos.y, self.rect(tile))
            <= self._visible_limit
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
            owned = self._owned.get(tile)
            if owned is not None:
                owned.discard(node)
                if not owned:
                    self._retire_tile(tile)
        for consumer in self._consumers.pop(node, set()):
            if consumer in self._halo:
                self._unread_halo(consumer, node)
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
        for consumer in self._consumers.pop(node, set()):
            self._unread_halo(consumer, node)
        self._index_halo(node, pos)
        affected.update(self.tiles_reading(node))
        return affected

    def _adopt_halo_of_new_tile(self, tile: TileId) -> None:
        """A tile just became occupied: collect its halo from scratch."""
        tx, ty = tile
        reach = self._reach
        for cx in range(tx - reach, tx + reach + 1):
            for cy in range(ty - reach, ty + reach + 1):
                if (cx, cy) == tile:
                    continue
                for node in self._owned.get((cx, cy), ()):
                    self._read_halo(tile, node, self.positions[node])

    def _retire_tile(self, tile: TileId) -> None:
        """A tile lost its last owned node: forget it entirely."""
        self._owned.pop(tile, None)
        self._visible.pop(tile, None)
        for node in self._halo.pop(tile, set()):
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
