"""Unit-disk graphs: the paper's model of a wireless ad hoc network.

All nodes share a maximum transmission range of one unit, so two nodes
can communicate directly iff their Euclidean distance is at most 1
(Clark, Colbourn, Johnson 1990).  :class:`UnitDiskGraph` couples the
combinatorial graph with node positions — positions are needed to
*evaluate* geometric dilation even though the paper's algorithms never
look at them ("position-less spanners").

Edge builders, all producing the identical adjacency:

* :func:`grid_adjacency` — spatial hash with unit-sized cells, expected
  O(n + m) in pure Python.  The constructor runs it below
  :data:`~repro.kernels.AUTO_THRESHOLD` nodes.
* :func:`repro.kernels.udg.vector_adjacency` — the same cell binning
  executed as numpy array passes; ~5x faster at a few thousand nodes.
  The constructor runs it from the threshold up.
* :func:`brute_adjacency` — the O(n²) oracle, kept for
  cross-validation and the construction ablation benchmark.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.geometry.point import Point, distance_squared, path_length
from repro.graphs.graph import Graph, Node, canonical_order

GridCell = Tuple[int, int]

#: Offsets of a cell and its eight neighbors; with cell size == radius,
#: any two nodes within the radius fall in adjacent (or equal) cells.
_NEIGHBOR_OFFSETS: Tuple[GridCell, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


class UnitDiskGraph(Graph):
    """A unit-disk graph: nodes with positions, edge iff distance <= radius.

    The transmission ``radius`` defaults to the paper's one unit.  The
    class *is a* :class:`Graph`, so every graph algorithm in the library
    applies directly; positions are carried alongside for geometric
    measurements.
    """

    def __init__(self, positions: Mapping[Node, Point], radius: float = 1.0) -> None:
        if radius <= 0:
            raise ValueError("transmission radius must be positive")
        super().__init__()
        self.radius = radius
        self.positions: Dict[Node, Point] = {
            node: _as_point(pos, node) for node, pos in positions.items()
        }
        #: Persistent spatial hash (cell size == radius) shared by the
        #: incremental mutations and disk queries, so moves and joins
        #: cost O(local density) instead of an O(n) scan.  Built lazily
        #: on first use; edge construction does not need it.
        self._grid: Optional[Dict[GridCell, Set[Node]]] = None
        from repro.kernels import use_vector

        if use_vector(len(self.positions)):
            from repro.kernels.udg import vector_adjacency

            self._adj = vector_adjacency(list(self.positions.items()), radius)
        else:
            self._adj = grid_adjacency(self.positions, radius)

    # ------------------------------------------------------------------
    # Spatial hash maintenance
    # ------------------------------------------------------------------
    def _ensure_grid(self) -> Dict[GridCell, Set[Node]]:
        """The spatial hash, building it on first use."""
        if self._grid is None:
            self._grid = _cell_hash(self.positions, self.radius)
        return self._grid

    def _grid_insert(self, node: Node, pos: Point) -> None:
        self._ensure_grid().setdefault(_cell(pos, self.radius), set()).add(node)

    def _grid_discard(self, node: Node, pos: Point) -> None:
        grid = self._ensure_grid()
        cell = _cell(pos, self.radius)
        members = grid.get(cell)
        if members is not None:
            members.discard(node)
            if not members:
                del grid[cell]

    def _neighbors_near(self, node: Node, pos: Point) -> Set[Node]:
        """Nodes within the radius of ``pos`` (excluding ``node``),
        found by scanning only the 9 surrounding grid cells."""
        grid = self._ensure_grid()
        cx, cy = _cell(pos, self.radius)
        limit = self.radius * self.radius
        positions = self.positions
        # The coordinates are read inline (not through distance_squared,
        # which unpacks each Point via its generator __iter__): a move
        # scans these cells, and the predicate is the same expression.
        x, y = pos.x, pos.y
        found = set()
        for ox, oy in _NEIGHBOR_OFFSETS:
            for other in grid.get((cx + ox, cy + oy), ()):
                if other != node:
                    there = positions[other]
                    dx = x - there.x
                    dy = y - there.y
                    if dx * dx + dy * dy <= limit:
                        found.add(other)
        return found

    # ------------------------------------------------------------------
    # Geometry-aware queries
    # ------------------------------------------------------------------
    def position(self, node: Node) -> Point:
        """Position of ``node``."""
        return self.positions[node]

    def euclidean_distance(self, u: Node, v: Node) -> float:
        """Euclidean distance between two nodes' positions."""
        return self.positions[u].distance_to(self.positions[v])

    def path_euclidean_length(self, path: Iterable[Node]) -> float:
        """Total Euclidean length of a node path (sum of hop lengths)."""
        return path_length(self.positions[node] for node in path)

    def nodes_within(self, center: Point, radius: float) -> List[Node]:
        """Nodes whose position lies within ``radius`` of ``center``.

        Routed through the spatial hash: only the grid cells overlapping
        the query disk's bounding box are scanned, so a local query
        costs O(occupancy of those cells) instead of O(n).  Falls back
        to the plain scan when the disk covers more cells than there
        are nodes.  Results come out in canonical node order.
        """
        if radius < 0:
            raise ValueError("query radius must be non-negative")
        center = _as_point(center)
        limit = radius * radius
        size = self.radius
        cx_min = int(math.floor((center.x - radius) / size))
        cx_max = int(math.floor((center.x + radius) / size))
        cy_min = int(math.floor((center.y - radius) / size))
        cy_max = int(math.floor((center.y + radius) / size))
        num_cells = (cx_max - cx_min + 1) * (cy_max - cy_min + 1)
        if num_cells >= len(self.positions):
            return canonical_order(
                node
                for node, pos in self.positions.items()
                if distance_squared(center, pos) <= limit
            )
        grid = self._ensure_grid()
        found: List[Node] = []
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                members = grid.get((cx, cy))
                if not members:
                    continue
                found.extend(
                    node
                    for node in members
                    if distance_squared(center, self.positions[node]) <= limit
                )
        return canonical_order(found)

    def nodes_within_many(
        self, centers: Sequence[Point], radius: float
    ) -> List[List[Node]]:
        """Batch disk query: per center, the nodes within ``radius``.

        One :meth:`nodes_within` per center on a small query; from
        :data:`~repro.kernels.AUTO_THRESHOLD` center-node pairs one
        broadcast distance pass
        (:func:`repro.kernels.disk.vector_nodes_within`).  Both produce
        the same node sets; each result list is in canonical node order.
        """
        from repro.kernels import use_vector, vector_nodes_within

        centers = [_as_point(c) for c in centers]
        if use_vector(len(centers) * len(self.positions)):
            return vector_nodes_within(self, centers, radius)
        return [self.nodes_within(center, radius) for center in centers]

    # ------------------------------------------------------------------
    # Mutation under mobility
    # ------------------------------------------------------------------
    def move_node(self, node: Node, new_position: Point) -> Tuple[set, set]:
        """Move ``node`` and update its incident edges.

        Returns ``(gained, lost)`` neighbor sets — the link-layer events
        the maintenance protocol reacts to.  The spatial hash makes a
        move O(local density): only the 9 cells around the new position
        are scanned.
        """
        if node not in self.positions:
            raise KeyError(f"unknown node {node!r}")
        old_position = self.positions[node]
        new_position = _as_point(new_position, node)
        self._grid_discard(node, old_position)
        self.positions[node] = new_position
        self._grid_insert(node, new_position)
        new_neighbors = self._neighbors_near(node, new_position)
        old_neighbors = set(self.adjacency(node))
        for lost in old_neighbors - new_neighbors:
            self.remove_edge(node, lost)
        for gained in new_neighbors - old_neighbors:
            self.add_edge(node, gained)
        return new_neighbors - old_neighbors, old_neighbors - new_neighbors

    def add_node_at(self, node: Node, position: Point) -> Set[Node]:
        """Add a node (a radio turned on) and wire its unit-disk edges.

        Returns the set of neighbors it connected to.  O(local
        density) via the spatial hash, like :meth:`move_node`.
        """
        if node in self.positions:
            raise ValueError(f"node {node!r} already exists")
        position = _as_point(position, node)
        self.positions[node] = position
        self._grid_insert(node, position)
        self.add_node(node)
        neighbors = self._neighbors_near(node, position)
        for nbr in neighbors:
            self.add_edge(node, nbr)
        return neighbors

    def remove_node(self, node: Node) -> None:
        """Remove a node (a radio turned off) and its position."""
        super().remove_node(node)
        self._grid_discard(node, self.positions[node])
        del self.positions[node]

    def copy(self) -> "UnitDiskGraph":
        clone = UnitDiskGraph({}, radius=self.radius)
        clone.positions = dict(self.positions)
        clone._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        return clone

    def __repr__(self) -> str:
        return (
            f"UnitDiskGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"radius={self.radius})"
        )


def build_udg(
    positions: Mapping[Node, Point] | Iterable[Tuple[float, float]],
    radius: float = 1.0,
) -> UnitDiskGraph:
    """Build a :class:`UnitDiskGraph` from positions.

    ``positions`` may be a mapping from node id to position, or a bare
    iterable of ``(x, y)`` pairs, in which case nodes are numbered
    ``0..n-1`` in iteration order.
    """
    if not isinstance(positions, Mapping):
        positions = {i: _as_point(p, i) for i, p in enumerate(positions)}
    return UnitDiskGraph(positions, radius=radius)


def _cell_hash(
    positions: Mapping[Node, Point], radius: float
) -> Dict[GridCell, Set[Node]]:
    """Nodes binned into ``radius``-sized cells, in ``positions`` order."""
    grid: Dict[GridCell, Set[Node]] = {}
    for node, pos in positions.items():
        grid.setdefault(_cell(pos, radius), set()).add(node)
    return grid


def _cell(pos: Point, size: float) -> GridCell:
    return (int(math.floor(pos.x / size)), int(math.floor(pos.y / size)))


def grid_adjacency(
    positions: Mapping[Node, Point], radius: float
) -> Dict[Node, Set[Node]]:
    """``{node: set(neighbors)}`` through a spatial hash with cell size
    == radius, so only same- or adjacent-cell pairs are compared."""
    adjacency: Dict[Node, Set[Node]] = {node: set() for node in positions}
    limit = radius * radius
    grid = _cell_hash(positions, radius)
    for (cx, cy), cell_members in grid.items():
        members = canonical_order(cell_members)
        # Within-cell pairs.
        for i, u in enumerate(members):
            pu = positions[u]
            for v in members[i + 1 :]:
                if distance_squared(pu, positions[v]) <= limit:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        # Cross-cell pairs: only look at half the neighbor cells so
        # each unordered cell pair is examined once.
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            others = grid.get((cx + dx, cy + dy))
            if not others:
                continue
            for u in members:
                pu = positions[u]
                for v in others:
                    if distance_squared(pu, positions[v]) <= limit:
                        adjacency[u].add(v)
                        adjacency[v].add(u)
    return adjacency


def brute_adjacency(
    positions: Mapping[Node, Point], radius: float
) -> Dict[Node, Set[Node]]:
    """Unit-disk adjacency by comparing every pair: the O(n²) oracle."""
    adjacency: Dict[Node, Set[Node]] = {node: set() for node in positions}
    limit = radius * radius
    for u, v in itertools.combinations(positions, 2):
        if distance_squared(positions[u], positions[v]) <= limit:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _as_point(pos: object, node: object = None) -> Point:
    """``pos`` as a :class:`Point`; a non-finite coordinate raises
    ``ValueError`` (naming ``node`` when given)."""
    if isinstance(pos, Point):
        point = pos
    else:
        x, y = pos  # type: ignore[misc]
        point = Point(float(x), float(y))
    if not (math.isfinite(point.x) and math.isfinite(point.y)):
        owner = "" if node is None else f" of node {node!r}"
        raise ValueError(f"coordinate{owner} is not finite: ({point.x}, {point.y})")
    return point
