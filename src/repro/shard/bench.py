"""Shard-scaling benchmark harness.

Measures the two properties the sharded architecture exists for:

* **Serve scaling** — query throughput of the
  :class:`~repro.shard.pool.ShardServePool` as worker processes are
  added.  The workload is read-heavy (intra-tile backbone routes, the
  expensive per-query op), so throughput should scale with workers
  until the control plane saturates.
* **Boundary-only invalidation** — under gentle churn (small interior
  moves), every re-stitch must stay inside the tiles that read the
  moved node: zero cascaded tiles, and far fewer tile rebuilds than
  tiles in the deployment.

Deployments are jittered grids: deterministic for a seed, guaranteed
connected at any size (diagonal neighbors stay within the radio
radius), with uniform density — the shape both the paper's analysis
and the tiling assume.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.shard.config import ShardConfig
from repro.shard.pool import ShardServePool

Node = Hashable

#: Grid spacing in radii: diagonal neighbors are at most
#: ``sqrt(2) * spacing * (1 + 2 * jitter)`` apart, which stays below
#: one radius for 0.55 and 10% jitter — the deployment is connected by
#: construction.
GRID_SPACING = 0.55
GRID_JITTER = 0.1


def jittered_grid(n: int, seed: int, radius: float = 1.0) -> UnitDiskGraph:
    """A connected ``n``-node deployment on a jittered square grid."""
    rng = random.Random(seed)
    cols = max(1, int(n**0.5))
    spacing = GRID_SPACING * radius
    amplitude = GRID_JITTER * spacing
    positions = {}
    for i in range(n):
        row, col = divmod(i, cols)
        positions[i] = Point(
            col * spacing + rng.uniform(-amplitude, amplitude),
            row * spacing + rng.uniform(-amplitude, amplitude),
        )
    return UnitDiskGraph(positions, radius=radius, method="vector")


def _route_workload(
    pool: ShardServePool, seed: int, count: int
) -> List[Tuple[str, Node, Node]]:
    """Intra-tile route queries: pairs of members of the same tile."""
    rng = random.Random(seed)
    tiles = pool.tiler.tiles()
    queries: List[Tuple[str, Node, Node]] = []
    for _ in range(count):
        tile = tiles[rng.randrange(len(tiles))]
        owned = pool.tiler.owned(tile)
        u = owned[rng.randrange(len(owned))]
        v = owned[rng.randrange(len(owned))]
        queries.append(("route", u, v))
    return queries


def _edge_preserving(
    graph: UnitDiskGraph, node: Node, target: Point, amplitude: float
) -> bool:
    """True when moving ``node`` to ``target`` flips no unit-disk edge.

    Only nodes within ``radius + amplitude`` of the current position
    can cross the threshold, so the check is O(local density).
    """
    pos = graph.positions[node]
    for w in graph.nodes_within(pos, graph.radius + 2.0 * amplitude):
        if w == node:
            continue
        other = graph.positions[w]
        before = pos.distance_to(other) <= graph.radius
        after = target.distance_to(other) <= graph.radius
        if before != after:
            return False
    return True


def _interior_moves(
    pool: ShardServePool, seed: int, count: int, radius: float
) -> List[Tuple[Node, Point]]:
    """Gentle churn: small edge-preserving displacements of
    tile-interior nodes (at least one halo width away from every tile
    boundary).

    Gentle means topologically silent — the common case for mobile
    nodes between connectivity events.  Such moves must stay inside
    the tiles that read the moved node; any larger blast radius is an
    invalidation bug, which is exactly what the benchmark gates on.
    Moves that do flip edges may legitimately ripple further (the
    stitched result must track the global construction), so they are
    excluded here and exercised by the correctness tests instead.
    """
    rng = random.Random(seed)
    tiler = pool.tiler
    moves: List[Tuple[Node, Point]] = []
    candidates: List[Node] = []
    for tile in tiler.tiles():
        candidates.extend(
            node
            for node in tiler.interior(tile)
            if not tiler.consumers(node)
        )
    if not candidates:
        # Tiles narrower than two halo widths have no interior band;
        # fall back to nodes read only by their owner, whose moves are
        # single-tile events just the same.
        candidates = [
            node
            for node in canonical_order(pool.graph.positions)
            if not tiler.consumers(node)
        ]
    if not candidates:
        return moves
    amplitude = 0.05 * radius
    attempts = 0
    limit = count * 50
    while len(moves) < count and attempts < limit:
        attempts += 1
        node = candidates[rng.randrange(len(candidates))]
        pos = pool.graph.positions[node]
        target = Point(
            pos.x + rng.uniform(-amplitude, amplitude),
            pos.y + rng.uniform(-amplitude, amplitude),
        )
        if _edge_preserving(pool.graph, node, target, amplitude):
            moves.append((node, target))
    return moves


def bench_pool(
    graph: UnitDiskGraph,
    workers: int,
    *,
    tile_size: float = 8.0,
    queries: int = 2000,
    batch_size: int = 256,
    seed: int = 0,
    clock=time.perf_counter,
) -> Dict[str, Any]:
    """Throughput of one pool configuration on the route workload."""
    config = ShardConfig(
        tile_size=tile_size, workers=workers, batch_size=batch_size
    )
    build_started = clock()
    with ShardServePool(graph, config) as pool:
        build_seconds = clock() - build_started
        tiles = len(pool.tiler.tiles())
        workload = _route_workload(pool, seed, queries)
        started = clock()
        results = pool.query_batch(workload)
        serve_seconds = clock() - started
        answered = sum(1 for r in results if r is not None)
    return {
        "workers": workers,
        "tiles": tiles,
        "queries": queries,
        "answered": answered,
        "build_seconds": build_seconds,
        "serve_seconds": serve_seconds,
        "throughput_qps": queries / serve_seconds if serve_seconds else 0.0,
    }


def bench_invalidation(
    graph: UnitDiskGraph,
    *,
    tile_size: float = 8.0,
    churn_events: int = 50,
    seed: int = 0,
) -> Dict[str, Any]:
    """Boundary-only invalidation under gentle interior churn."""
    config = ShardConfig(tile_size=tile_size, workers=0)
    with ShardServePool(graph, config) as pool:
        tiles_total = len(pool.tiler.tiles())
        moves = _interior_moves(pool, seed, churn_events, graph.radius)
        rebuilt = 0
        cascaded = 0
        max_rebuilt = 0
        applied = 0
        amplitude = 0.05 * graph.radius
        for node, target in moves:
            # Earlier moves shift neighbors, so re-check edge
            # preservation against the live graph before applying.
            if not _edge_preserving(pool.graph, node, target, amplitude):
                continue
            report = pool.move(node, target)
            applied += 1
            rebuilt += len(report.rebuilt)
            cascaded += len(report.cascaded)
            max_rebuilt = max(max_rebuilt, len(report.rebuilt))
    return {
        "tiles": tiles_total,
        "churn_events": applied,
        "tiles_rebuilt": rebuilt,
        "tiles_cascaded": cascaded,
        "max_tiles_rebuilt_per_event": max_rebuilt,
        "boundary_only": cascaded == 0,
    }


def run_scaling_bench(
    n: int,
    *,
    workers: Sequence[int] = (1, 2),
    tile_size: float = 8.0,
    queries: int = 2000,
    churn_events: int = 50,
    seed: int = 0,
) -> Dict[str, Any]:
    """The full shard-scaling benchmark: build one deployment, measure
    every pool width and the invalidation profile."""
    graph = jittered_grid(n, seed)
    report: Dict[str, Any] = {
        "n": n,
        "edges": graph.num_edges,
        "tile_size": tile_size,
        "pools": [],
    }
    for width in workers:
        report["pools"].append(
            bench_pool(
                graph,
                width,
                tile_size=tile_size,
                queries=queries,
                seed=seed,
            )
        )
    report["invalidation"] = bench_invalidation(
        graph, tile_size=tile_size, churn_events=churn_events, seed=seed
    )
    by_width = {entry["workers"]: entry for entry in report["pools"]}
    if 1 in by_width and 2 in by_width and by_width[1]["throughput_qps"]:
        report["scaling_2_vs_1"] = (
            by_width[2]["throughput_qps"] / by_width[1]["throughput_qps"]
        )
    return report
