"""Topology generators for wireless ad hoc network experiments.

The paper's setting is n nodes dropped in a bounded region of the plane
with unit transmission range.  The generators here cover the workloads
the benchmarks sweep over:

* uniform random deployments (the standard ad hoc network model),
* deployments resampled until connected (most experiments need a
  connected UDG),
* regular, perturbed and jittered grids (structured deployments),
* clustered deployments (hot spots, the clustering motivation of [8]),
* a chain (the paper's Theorem 12 worst case for sequential marking),
* the small hand-made example matching the paper's Figure 2.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.graphs.udg import UnitDiskGraph


def uniform_random_udg(
    num_nodes: int,
    side: float,
    radius: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> UnitDiskGraph:
    """``num_nodes`` nodes uniform in a ``side x side`` square."""
    rng = _resolve_rng(seed, rng)
    positions = {
        i: Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
        for i in range(num_nodes)
    }
    return UnitDiskGraph(positions, radius=radius)


def connected_random_udg(
    num_nodes: int,
    side: float,
    radius: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    max_attempts: int = 200,
) -> UnitDiskGraph:
    """Uniform random UDG, resampled until connected.

    Raises ``RuntimeError`` after ``max_attempts`` failures — a sign the
    chosen density is below the connectivity threshold and the experiment
    parameters should change rather than loop forever.
    """
    rng = _resolve_rng(seed, rng)
    for _ in range(max_attempts):
        graph = uniform_random_udg(num_nodes, side, radius, rng=rng)
        if is_connected(graph):
            return graph
    raise RuntimeError(
        f"no connected UDG with n={num_nodes}, side={side}, radius={radius} "
        f"after {max_attempts} attempts; the deployment is too sparse"
    )


def grid_udg(rows: int, cols: int, spacing: float = 0.9, radius: float = 1.0) -> UnitDiskGraph:
    """A regular ``rows x cols`` grid with the given ``spacing``.

    With ``spacing <= radius < spacing * sqrt(2)`` the result is the
    4-connected grid graph.
    """
    positions = {
        (r * cols + c): Point(c * spacing, r * spacing)
        for r in range(rows)
        for c in range(cols)
    }
    return UnitDiskGraph(positions, radius=radius)


def perturbed_grid_udg(
    rows: int,
    cols: int,
    spacing: float = 0.9,
    jitter: float = 0.2,
    radius: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> UnitDiskGraph:
    """A grid with each node jittered uniformly in a ``jitter`` box."""
    rng = _resolve_rng(seed, rng)
    positions = _jittered_rows(rows * cols, cols, spacing, jitter, rng)
    return UnitDiskGraph(positions, radius=radius)


def jittered_grid(n: int, seed: int, radius: float = 1.0) -> UnitDiskGraph:
    """A connected ``n``-node deployment on a jittered square grid.

    Nodes fill ``int(sqrt(n))`` columns row by row (the last row may be
    partial), ``0.55`` radii apart, each jittered by up to 10% of the
    spacing per axis.  Diagonal neighbours are then at most
    ``sqrt(2) * 0.55 * 1.2 < 1`` radius apart, so the deployment is
    connected by construction and has uniform density: the shape the
    Lemma 2 packing argument and the tiling both assume.  On a square
    ``n`` it equals ``perturbed_grid_udg(sqrt(n), sqrt(n),
    spacing=0.55, jitter=0.1 * 0.55, seed=seed)`` bit for bit.
    """
    spacing = 0.55 * radius
    positions = _jittered_rows(
        n, max(1, int(n**0.5)), spacing, 0.1 * spacing, random.Random(seed)
    )
    return UnitDiskGraph(positions, radius=radius)


def _jittered_rows(
    count: int, cols: int, spacing: float, jitter: float, rng: random.Random
) -> Dict[int, Point]:
    """``count`` grid positions filled row-major, ``cols`` to a row,
    each jittered uniformly in a ``jitter`` box (x draw, then y)."""
    positions: Dict[int, Point] = {}
    for i in range(count):
        row, col = divmod(i, cols)
        positions[i] = Point(
            col * spacing + rng.uniform(-jitter, jitter),
            row * spacing + rng.uniform(-jitter, jitter),
        )
    return positions


def clustered_udg(
    num_clusters: int,
    nodes_per_cluster: int,
    side: float,
    cluster_radius: float = 0.8,
    radius: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> UnitDiskGraph:
    """Nodes grouped around random cluster centres (hot-spot deployments).

    Each cluster centre is uniform in the square; members are placed at a
    uniform angle and distance up to ``cluster_radius`` from the centre.
    """
    rng = _resolve_rng(seed, rng)
    positions: Dict[int, Point] = {}
    node = 0
    for _ in range(num_clusters):
        cx = rng.uniform(0.0, side)
        cy = rng.uniform(0.0, side)
        for _ in range(nodes_per_cluster):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dist = cluster_radius * math.sqrt(rng.random())
            positions[node] = Point(cx + dist * math.cos(angle), cy + dist * math.sin(angle))
            node += 1
    return UnitDiskGraph(positions, radius=radius)


def line_udg(num_nodes: int, spacing: float = 0.9, radius: float = 1.0) -> UnitDiskGraph:
    """A chain of nodes along the x axis.

    With ``radius/2 < spacing <= radius`` this is the path graph — the
    worst case Theorem 12 describes for the sequential MIS marking, where
    node ``v_i`` must wait for ``v_{i-1}``.
    """
    positions = {i: Point(i * spacing, 0.0) for i in range(num_nodes)}
    return UnitDiskGraph(positions, radius=radius)


def paper_figure2_udg() -> UnitDiskGraph:
    """A small network reproducing the paper's Figure 2 scenario.

    Figure 2 shows a graph in which nodes 1 and 2 form a weakly-connected
    dominating set that is *not* a connected dominating set: 1 and 2 are
    not adjacent, but the edges incident to them (the black edges) form a
    connected weakly induced subgraph through a shared gray neighbor.
    """
    positions = {
        1: Point(0.0, 0.0),
        2: Point(1.8, 0.0),
        3: Point(0.9, 0.1),  # shared relay between the two dominators
        4: Point(-0.7, 0.6),
        5: Point(-0.7, -0.6),
        6: Point(2.5, 0.6),
        7: Point(2.5, -0.6),
        8: Point(0.4, -0.7),
    }
    return UnitDiskGraph(positions)


def density_sweep_sides(
    num_nodes: int, average_degrees: Iterable[float], radius: float = 1.0
) -> List[Tuple[float, float]]:
    """Square side lengths achieving target average degrees.

    For n nodes uniform in a square of side L, the expected degree is
    roughly ``n * pi * r^2 / L^2`` (ignoring boundary effects), so
    ``L = sqrt(n * pi * r^2 / d)``.  Returns ``(target_degree, side)``
    pairs, used by the density-sweep benchmarks.
    """
    result = []
    for degree in average_degrees:
        if degree <= 0:
            raise ValueError("target average degree must be positive")
        side = math.sqrt(num_nodes * math.pi * radius * radius / degree)
        result.append((degree, side))
    return result


def _resolve_rng(seed: Optional[int], rng: Optional[random.Random]) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed)
