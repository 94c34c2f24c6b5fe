"""Unit-disk graphs: the paper's model of a wireless ad hoc network.

All nodes share a maximum transmission range of one unit, so two nodes
can communicate directly iff their Euclidean distance is at most 1
(Clark, Colbourn, Johnson 1990).  :class:`UnitDiskGraph` couples the
combinatorial graph with node positions — positions are needed to
*evaluate* geometric dilation even though the paper's algorithms never
look at them ("position-less spanners").

Construction methods:

* ``"grid"`` (default) — spatial hash with unit-sized cells, expected
  O(n + m) in pure Python.
* ``"vector"`` — the same cell binning executed as numpy array passes
  (:mod:`repro.kernels.udg`); ~5x faster at a few thousand nodes and
  guaranteed to produce the identical edge set.
* ``"brute"`` — the O(n²) oracle, kept for cross-validation and the
  construction ablation benchmark.
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

    def __init__(
        self,
        positions: Mapping[Node, Point],
        radius: float = 1.0,
        *,
        method: str = "grid",
    ) -> None:
        if radius <= 0:
            raise ValueError("transmission radius must be positive")
        super().__init__()
        self.radius = radius
        self.positions: Dict[Node, Point] = {
            node: _as_point(pos) for node, pos in positions.items()
        }
        #: Persistent spatial hash (cell size == radius) shared by the
        #: grid construction and the incremental mutations, so moves and
        #: joins cost O(local density) instead of an O(n) scan.  Built
        #: lazily (on first use) for the vector method, where edge
        #: construction does not need it.
        self._grid: Optional[Dict[GridCell, Set[Node]]] = None
        if method == "grid":
            self._build_grid()
            for node in self.positions:
                self.add_node(node)
            self._build_edges_grid()
        elif method == "brute":
            self._build_grid()
            for node in self.positions:
                self.add_node(node)
            self._build_edges_brute()
        elif method == "vector":
            self._build_edges_vector()
        else:
            raise ValueError(f"unknown construction method {method!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_edges_grid(self) -> None:
        grid = self._ensure_grid()
        limit = self.radius * self.radius
        for (cx, cy), cell_members in grid.items():
            members = canonical_order(cell_members)
            # Within-cell pairs.
            for i, u in enumerate(members):
                pu = self.positions[u]
                for v in members[i + 1 :]:
                    if distance_squared(pu, self.positions[v]) <= limit:
                        self.add_edge(u, v)
            # Cross-cell pairs: only look at half the neighbor cells so
            # each unordered cell pair is examined once.
            for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
                others = grid.get((cx + dx, cy + dy))
                if not others:
                    continue
                for u in members:
                    pu = self.positions[u]
                    for v in others:
                        if distance_squared(pu, self.positions[v]) <= limit:
                            self.add_edge(u, v)

    def _build_edges_brute(self) -> None:
        limit = self.radius * self.radius
        for u, v in itertools.combinations(self.positions, 2):
            if distance_squared(self.positions[u], self.positions[v]) <= limit:
                self.add_edge(u, v)

    def _build_edges_vector(self) -> None:
        from repro.kernels.udg import vector_adjacency

        self._adj = vector_adjacency(
            list(self.positions.items()), self.radius
        )

    # ------------------------------------------------------------------
    # Spatial hash maintenance
    # ------------------------------------------------------------------
    def _build_grid(self) -> Dict[GridCell, Set[Node]]:
        grid: Dict[GridCell, Set[Node]] = {}
        size = self.radius
        for node, pos in self.positions.items():
            cell = (int(math.floor(pos.x / size)), int(math.floor(pos.y / size)))
            grid.setdefault(cell, set()).add(node)
        self._grid = grid
        return grid

    def _ensure_grid(self) -> Dict[GridCell, Set[Node]]:
        """The spatial hash, building it on first use (vector method)."""
        if self._grid is None:
            return self._build_grid()
        return self._grid

    def _cell_of(self, pos: Point) -> GridCell:
        size = self.radius
        return (int(math.floor(pos.x / size)), int(math.floor(pos.y / size)))

    def _grid_insert(self, node: Node, pos: Point) -> None:
        self._ensure_grid().setdefault(self._cell_of(pos), set()).add(node)

    def _grid_discard(self, node: Node, pos: Point) -> None:
        grid = self._ensure_grid()
        cell = self._cell_of(pos)
        members = grid.get(cell)
        if members is not None:
            members.discard(node)
            if not members:
                del grid[cell]

    def _neighbors_near(self, node: Node, pos: Point) -> Set[Node]:
        """Nodes within the radius of ``pos`` (excluding ``node``),
        found by scanning only the 9 surrounding grid cells."""
        grid = self._ensure_grid()
        cx, cy = self._cell_of(pos)
        limit = self.radius * self.radius
        found = set()
        for dx, dy in _NEIGHBOR_OFFSETS:
            for other in grid.get((cx + dx, cy + dy), ()):
                if other != node and distance_squared(
                    pos, self.positions[other]
                ) <= limit:
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
        self,
        centers: Sequence[Point],
        radius: float,
        *,
        method: str = "auto",
    ) -> List[List[Node]]:
        """Batch disk query: per center, the nodes within ``radius``.

        ``method`` is ``"pure"`` (one :meth:`nodes_within` per center),
        ``"vector"`` (one broadcast distance pass over all centers via
        :mod:`repro.kernels.disk`), or ``"auto"``.  Both produce the
        same node sets; each result list is in canonical node order.
        """
        from repro.kernels import resolve_method

        centers = [_as_point(c) for c in centers]
        choice = resolve_method(
            method, size=len(centers) * len(self.positions)
        )
        if choice == "pure":
            return [self.nodes_within(center, radius) for center in centers]
        from repro.kernels.disk import batch_points_in_disk

        if radius < 0:
            raise ValueError("query radius must be non-negative")
        nodes = self.numbering().nodes
        coords = [
            (self.positions[node].x, self.positions[node].y) for node in nodes
        ]
        if not coords:
            return [[] for _ in centers]
        inside = batch_points_in_disk(
            coords, [(c.x, c.y) for c in centers], radius
        )
        results: List[List[Node]] = []
        for row in inside:
            hits = row.nonzero()[0].tolist()
            results.append([nodes[j] for j in hits])
        return results

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
        new_position = _as_point(new_position)
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
        position = _as_point(position)
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
        clone._grid = None  # rebuilt lazily from the copied positions
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
    *,
    method: str = "grid",
) -> UnitDiskGraph:
    """Build a :class:`UnitDiskGraph` from positions.

    ``positions`` may be a mapping from node id to position, or a bare
    iterable of ``(x, y)`` pairs, in which case nodes are numbered
    ``0..n-1`` in iteration order.
    """
    if not isinstance(positions, Mapping):
        positions = {i: _as_point(p) for i, p in enumerate(positions)}
    return UnitDiskGraph(positions, radius=radius, method=method)


def _as_point(pos: object) -> Point:
    if isinstance(pos, Point):
        return pos
    x, y = pos  # type: ignore[misc]
    return Point(float(x), float(y))
