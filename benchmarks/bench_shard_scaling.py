"""Sharded serving at scale: pool throughput and invalidation locality.

The shard subsystem's reason to exist, asserted here:

* two pool workers serve route queries at **>= 2x** the one-worker
  throughput (needs >= 2 usable CPUs — skipped otherwise; at the full
  ``n`` the split replica working set also halves per-process memory
  pressure, which is where multi-worker serving pays off);
* gentle (edge-preserving) churn of nodes no other tile reads
  re-stitches only the tiles reading the moved node: **zero cascaded
  tiles**, and at most the reading tiles rebuilt per event;
* the stitched backbone equals the global single-process construction
  (spot-checked here; the seed/tile-size sweep lives in
  ``tests/test_shard.py``);
* the build seeded with the greedy-MIS pin table settles in one
  exchange round, one pass per tile, and equals tile for tile (and pin
  for pin) the build by exchange from an empty table.

``SHARD_SCALING_N`` scales the deployment (default 100000, a ~70-tile
multi-shard instance); CI runs a reduced size.
"""

import math
import os
import random
import time

import pytest

from bench_utils import show
from repro.geometry import Point
from repro.graphs import jittered_grid
from repro.obs import MetricsRegistry
from repro.shard import ShardConfig, ShardedBackbone, ShardServePool

N = int(os.environ.get("SHARD_SCALING_N", "100000"))
TILE_SIZE = 12.0
SEED = 0
QUERIES = max(4096, min(16384, N // 8))
BATCH_SIZE = 128


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _route_queries(tiler, count: int, seed: int):
    """Intra-tile route queries: pairs of nodes owned by one tile."""
    rng = random.Random(seed)
    tiles = tiler.tiles()
    queries = []
    for _ in range(count):
        owned = tiler.owned(tiles[rng.randrange(len(tiles))])
        u = owned[rng.randrange(len(owned))]
        v = owned[rng.randrange(len(owned))]
        queries.append(("route", u, v))
    return queries


def _serve(graph, workers: int):
    """Route throughput of one pool width on the intra-tile workload."""
    config = ShardConfig(
        tile_size=TILE_SIZE, workers=workers, batch_size=BATCH_SIZE
    )
    with ShardServePool(graph, config) as pool:
        queries = _route_queries(pool.tiler, QUERIES, SEED)
        started = time.perf_counter()
        answers = pool.query_batch(queries)
        seconds = time.perf_counter() - started
        tiles = len(pool.tiler.tiles())
    return {
        "workers": workers,
        "tiles": tiles,
        "qps": QUERIES / seconds,
        "answered": sum(1 for answer in answers if answer is not None),
    }


def _gentle_moves(graph, tiler, count: int, seed: int):
    """Yield ``count`` moves ``(node, target)`` that flip no unit-disk edge.

    Each move takes a node no other tile reads and shifts it, in a
    random direction, by half its link margin: the smallest
    ``|d(v, w) - R|`` over the nodes ``w`` within ``2R``, read on the
    live graph.  By the triangle inequality no distance then crosses
    ``R``.  Apply each move before drawing the next.
    """
    rng = random.Random(seed)
    quiet = [v for v in sorted(graph.positions) if not tiler.consumers(v)]
    for _ in range(count):
        node = quiet[rng.randrange(len(quiet))]
        pos = graph.positions[node]
        step = 0.5 * min(
            abs(pos.distance_to(graph.positions[w]) - graph.radius)
            for w in graph.nodes_within(pos, 2.0 * graph.radius)
            if w != node
        )
        angle = rng.uniform(0.0, 2.0 * math.pi)
        yield node, Point(
            pos.x + step * math.cos(angle), pos.y + step * math.sin(angle)
        )


@pytest.fixture(scope="module")
def deployment():
    return jittered_grid(N, seed=SEED)


def test_two_workers_double_throughput(benchmark, deployment):
    if _usable_cpus() < 2:
        pytest.skip("worker scaling needs >= 2 usable CPUs")
    one = _serve(deployment, 1)
    two = benchmark.pedantic(
        lambda: _serve(deployment, 2), rounds=1, iterations=1
    )
    scaling = two["qps"] / one["qps"]
    show(
        f"Shard pool scaling (n={N}, tile={TILE_SIZE}R)",
        [{**entry, "qps": round(entry["qps"], 1)} for entry in (one, two)]
        + [{"workers": "2 vs 1", "tiles": "", "qps": round(scaling, 2),
            "answered": ""}],
    )
    assert two["answered"] == one["answered"] == QUERIES
    assert scaling >= 2.0, (
        f"2-worker pool only {scaling:.2f}x the 1-worker throughput"
    )


def test_gentle_churn_is_boundary_only(deployment):
    events = min(50, max(10, N // 2000))
    config = ShardConfig(tile_size=TILE_SIZE, workers=0)
    with ShardServePool(deployment.copy(), config) as pool:
        tiles = len(pool.tiler.tiles())
        rebuilt = cascaded = 0
        widest = 0
        for node, target in _gentle_moves(pool.graph, pool.tiler, events, SEED):
            before = pool.graph.neighbors(node)
            report = pool.move(node, target)
            assert pool.graph.neighbors(node) == before, (
                f"gentle move of {node!r} changed its adjacency"
            )
            rebuilt += len(report.rebuilt)
            cascaded += len(report.cascaded)
            widest = max(widest, len(report.rebuilt))
    show(
        f"Boundary-only invalidation (n={N})",
        [{"tiles": tiles, "churn_events": events, "tiles_rebuilt": rebuilt,
          "tiles_cascaded": cascaded, "max_tiles_rebuilt_per_event": widest}],
    )
    assert cascaded == 0, (
        "gentle churn re-stitched tiles beyond the ones reading the "
        "moved node"
    )
    # Each event touches at most the moved node's reading tiles — far
    # fewer than the deployment's tiles.
    assert widest <= 4
    assert rebuilt < tiles * events


def test_sharded_matches_global_backbone():
    from repro.shard.stitch import build_sharded
    from repro.wcds.algorithm2 import algorithm2_centralized

    graph = jittered_grid(min(N, 4000), seed=SEED)
    sharded = build_sharded(graph)
    oracle = algorithm2_centralized(graph)
    assert sharded.dominators == oracle.dominators
    assert sharded.mis_dominators == oracle.mis_dominators


class _ExchangeBuild(ShardedBackbone):
    """The build by frontier exchange from an empty pin table."""

    def _seed_pins(self) -> None:
        pass


def test_seeded_build_equals_exchange_build(deployment):
    config = ShardConfig(tile_size=TILE_SIZE)
    registry = MetricsRegistry()
    started = time.perf_counter()
    seeded = ShardedBackbone(deployment, config, registry=registry)
    seeded_s = time.perf_counter() - started
    oracle_registry = MetricsRegistry()
    started = time.perf_counter()
    exchanged = _ExchangeBuild(deployment, config, registry=oracle_registry)
    exchanged_s = time.perf_counter() - started
    tiles = seeded.tiler.tiles()
    show(
        f"Seeded vs exchange-from-empty build (n={N}, tile={TILE_SIZE}R)",
        [
            {
                "build": name,
                "tiles": len(tiles),
                "rounds": backbone.last_rounds,
                "tile_passes": int(
                    reg.value("shard_tile_builds_total", phase="full")
                ),
                "pins": int(reg.value("shard_pins_published_total")),
                "seconds": round(seconds, 3),
            }
            for name, backbone, reg, seconds in (
                ("seeded", seeded, registry, seeded_s),
                ("exchange", exchanged, oracle_registry, exchanged_s),
            )
        ],
    )
    assert tiles == exchanged.tiler.tiles()
    assert seeded._pins == exchanged._pins
    for tile in tiles:
        state, oracle = seeded._tiles[tile], exchanged._tiles[tile]
        assert seeded.tile_status(tile) == exchanged.tile_status(tile)
        assert state.waiting == oracle.waiting == set()
        assert seeded.tile_connectors(tile) == exchanged.tile_connectors(tile)
    assert seeded.result() == exchanged.result()
    assert seeded.last_rounds == 1
    assert registry.value("shard_tile_builds_total", phase="full") == len(tiles)
    # The seed delivered every pin to each consumer; the exchange wrote
    # none.
    consumers = seeded.tiler.consumers
    assert registry.value("shard_pins_published_total") == sum(
        len(consumers(v)) for v in deployment.nodes()
    )
