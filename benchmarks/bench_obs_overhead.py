"""Telemetry overhead — instrumented vs plain Algorithm I at n=500,
and the cross-process harvest on the sharded serving path.

The obs layer promises to be cheap enough to leave on: the null-span
fast path costs nothing measurable, and a live tracer plus registry
must stay under 10% on a full Algorithm I run. Each timing round runs
both variants back to back and the overhead is the median paired ratio
— consecutive runs see near-identical machine conditions, so pairing
cancels load drift that independent best-of-N minima (at ~70ms per
run) do not, and the median discards the odd round a scheduler stall
lands inside.

The same bar applies to the telemetry pipeline: a pool serving with
worker frame capture, the harvest's delta application into the parent
registry, and trace stitching enabled must stay within 10% of an
identical pool serving dark.
"""

import os

import pytest

from bench_utils import run_once, show
from repro.graphs import connected_random_udg
from repro.obs import MetricsRegistry, Tracer
from repro.obs.cost import _density_side
from repro.wcds import algorithm1_distributed

N = 500
REPEATS = 15
MAX_OVERHEAD = 0.10

SHARD_N = int(os.environ.get("OBS_OVERHEAD_SHARD_N", "20000"))
SHARD_QUERIES = 2048
SHARD_REPEATS = 9


def _paired_rounds(repeats, plain, instrumented):
    """(plain, instrumented) wall times for ``repeats`` back-to-back
    rounds."""
    import time

    rounds = []
    for _ in range(repeats):
        start = time.perf_counter()
        plain()
        mid = time.perf_counter()
        instrumented()
        rounds.append((mid - start, time.perf_counter() - mid))
    return rounds


def _measure():
    graph = connected_random_udg(N, _density_side(N), seed=7)

    def plain():
        algorithm1_distributed(graph)

    def instrumented():
        algorithm1_distributed(
            graph, tracer=Tracer(), registry=MetricsRegistry()
        )

    plain()  # warm both code paths before timing
    instrumented()
    rounds = _paired_rounds(REPEATS, plain, instrumented)
    import statistics

    base = min(base for base, _ in rounds)
    instr = min(instr for _, instr in rounds)
    overhead = statistics.median(i / b for b, i in rounds) - 1.0
    return [
        {
            "variant": "plain",
            "best_seconds": round(base, 5),
            "overhead": "-",
        },
        {
            "variant": "tracer+registry",
            "best_seconds": round(instr, 5),
            "overhead": f"{overhead:+.1%}",
        },
    ], overhead


def test_instrumentation_overhead_under_ten_percent(benchmark):
    rows, overhead = run_once(benchmark, _measure)
    show(f"obs overhead, Algorithm I at n={N} (best of {REPEATS})", rows)
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _shard_queries(pool, count, seed):
    import random

    rng = random.Random(seed)
    nodes = sorted(pool.graph.positions)
    queries = []
    for i in range(count):
        u = rng.choice(nodes)
        if i % 3 == 0:
            owned = pool.tiler.owned(pool.tiler.owner[u])
            queries.append(("route", u, rng.choice(owned)))
        elif i % 3 == 1:
            queries.append(("dominator", u))
        else:
            queries.append(("member", u))
    return queries


def _measure_sharded():
    import statistics

    from repro.graphs import jittered_grid
    from repro.shard import ShardConfig, ShardServePool

    deployment = jittered_grid(SHARD_N, seed=11)
    config = ShardConfig(tile_size=12.0, workers=2, batch_size=128)
    dark = ShardServePool(deployment.copy(), config)
    lit = ShardServePool(
        deployment.copy(), config, registry=MetricsRegistry()
    )
    try:
        queries = _shard_queries(dark, SHARD_QUERIES, seed=11)
        dark.query_batch(queries)  # warm replicas on both pools
        lit.query_batch(queries)
        rounds = _paired_rounds(
            SHARD_REPEATS,
            lambda: dark.query_batch(queries),
            lambda: lit.query_batch(queries),
        )
    finally:
        dark.close()
        lit.close()
    base = min(base for base, _ in rounds)
    instr = min(instr for _, instr in rounds)
    overhead = statistics.median(i / b for b, i in rounds) - 1.0
    return [
        {
            "variant": "pool (dark)",
            "best_seconds": round(base, 5),
            "overhead": "-",
        },
        {
            "variant": "pool + harvest/stitch",
            "best_seconds": round(instr, 5),
            "overhead": f"{overhead:+.1%}",
        },
    ], overhead


def test_sharded_harvest_overhead_under_ten_percent(benchmark):
    if _usable_cpus() < 2:
        pytest.skip("paired pool timing needs >= 2 usable CPUs")
    rows, overhead = run_once(benchmark, _measure_sharded)
    show(
        f"telemetry pipeline overhead, 2-worker pool at n={SHARD_N} "
        f"({SHARD_QUERIES} queries, best of {SHARD_REPEATS})",
        rows,
    )
    assert overhead < MAX_OVERHEAD, (
        f"harvest/stitch overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
    )
