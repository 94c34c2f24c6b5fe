"""Workload ``shard-churn``: tiled Algorithm II under node moves.

One seeded jittered-grid deployment is tiled and stitched by
``ShardedBackbone``, then churned by random moves of up to 0.3 radii
per axis.  Edge-flipping moves are kept, because those are the ones
that cascade; the cost of a move is heavy-tailed.  The tiler and the
frontier stitch do almost all the work here, with no simulator and no
inter-process traffic, so this workload isolates ``repro.shard``'s
build and invalidation paths.

* set-up: the deployment and its first ``ShardedBackbone`` build.
* ``op``: one ``ShardedBackbone.apply_move`` call.
* ``aux``: one full ``ShardedBackbone(graph, ShardConfig())`` rebuild of
  the churned graph after every ``moves_per_cycle`` moves.

A run is a number of cycles of ``moves_per_cycle`` moves and one
rebuild.  Every rebuild must reproduce exactly the backbone the moves
maintained incrementally, so maintenance is checked against a fresh
construction on every cycle, and the rebuild measures the stitched
build again and again instead of once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Tuple

from harness import (
    MoveStream,
    Result,
    Sample,
    SpeedMeter,
    Spans,
    clock,
    cycles,
    end_to_end,
    layer_metrics,
    quantile,
    ratio,
    repeat_setup,
    span_overhead_ns,
)
from repro import algorithm2_centralized, greedy_mis, is_weakly_connected_dominating_set
from repro.shard import ShardConfig, ShardedBackbone, Tiler
from repro.shard.bench import jittered_grid

NAME = "shard-churn"

CONFIG = ShardConfig()

#: Largest move along each axis, in radio radii.
MOVE_REACH = 0.3

#: Up to this size the backbone is compared with
#: ``algorithm2_centralized`` exactly; above it (where the oracle costs
#: more than the run) with the WCDS and greedy-MIS checks.
ORACLE_MAX_NODES = 5_000


@dataclass(frozen=True)
class Scale:
    nodes: int
    moves_per_cycle: int
    #: Cycles a second of run holds (see :func:`harness.cycles`).
    cycles_per_s: float


#: 12 cycles in 25 s: 480 moves and 12 rebuilds, about two thirds of
#: the loop's time in moves.
FULL = Scale(nodes=10_000, moves_per_cycle=40, cycles_per_s=0.48)
SMOKE = Scale(nodes=300, moves_per_cycle=40, cycles_per_s=1.0)


def _sets(backbone) -> Tuple[frozenset, frozenset]:
    return frozenset(backbone.mis_dominators), frozenset(backbone.dominators)


def _validate(result: Result, graph, sets, label: str) -> bool:
    """The exact oracle on small graphs, the WCDS and MIS checks on
    large ones."""
    mis, dominators = sets
    with result.spans.span(f"check.{label}"):
        if graph.num_nodes <= ORACLE_MAX_NODES:
            oracle = algorithm2_centralized(graph)
            return result.check(
                f"{label}_equals_centralized",
                (mis, dominators) == _sets(oracle),
            )
        wcds = is_weakly_connected_dominating_set(graph, dominators)
        greedy = mis == greedy_mis(graph)
    return result.check(f"{label}_is_wcds", wcds) & result.check(
        f"{label}_mis_is_greedy", greedy
    )


def _setup(seed: int, scale: Scale, spans) -> Tuple[Tuple[Any, ShardedBackbone], float]:
    started = clock()
    with spans.span("graphs.udg_build", nodes=scale.nodes):
        graph = jittered_grid(scale.nodes, seed)
    with spans.span("shard.build"):
        backbone = ShardedBackbone(graph, CONFIG)
    return (graph, backbone), clock() - started


def _loop(result: Result, graph, backbone: ShardedBackbone, seed: int,
          count: int, scale: Scale, meter: SpeedMeter):
    """``count`` cycles of ``moves_per_cycle`` moves and one rebuild;
    returns the last backbone, or ``None`` after a failed move.

    Of each move's ``InvalidationReport`` only its two counts are kept:
    a growing list of reports would make every full collection of the
    garbage collector, some of which land inside timed calls, slower
    as the run goes on."""
    spans = result.spans
    result.invariants["shard.tiles"] = len(backbone.tiler.tiles())
    result.invariants["shard.stitch_rounds"] = backbone.last_rounds
    result.op(_validate(result, graph, _sets(backbone.result()), "first_build"))
    moves = MoveStream(graph, seed, MOVE_REACH)
    builds = Sample()
    move_s = Sample()
    reports: List[Tuple[int, int]] = []
    for _ in range(count):
        for _ in range(scale.moves_per_cycle):
            node, target = moves.next()
            meter.tick()
            with spans.span("shard.move") as attrs:
                t0 = clock()
                try:
                    report = backbone.apply_move(node, target)
                except Exception as exc:  # noqa: BLE001 - a failed move is counted
                    result.error("apply_move", exc)
                    result.op(False)
                    return builds, move_s, reports, None
                move_s.add(t0)
                attrs.update(rebuilt=len(report.rebuilt), cascaded=len(report.cascaded))
            result.op(True)
            reports.append((len(report.rebuilt), len(report.cascaded)))
        maintained = _sets(backbone.result())
        meter.tick()
        with spans.span("shard.build"):
            t0 = clock()
            backbone = ShardedBackbone(graph, CONFIG)
            builds.add(t0)
        rebuilt = _sets(backbone.result())
        result.op(result.check("rebuild_equals_maintained", rebuilt == maintained))
    return builds, move_s, reports, backbone


def _finish(result: Result, graph, reports, last) -> None:
    if last is not None:
        result.op(_validate(result, graph, _sets(last.result()), "final"))
    result.invariants.update({
        "shard.moves": len(reports),
        "shard.tiles_rebuilt": sum(rebuilt for rebuilt, _ in reports),
        "shard.tiles_cascaded": sum(cascaded for _, cascaded in reports),
    })


def run(seed: int, seconds: float, traced: bool, scale: Scale = FULL) -> Result:
    """One run of the workload: untraced (end-to-end metrics) or traced
    (per-layer metrics)."""
    result = Result(NAME, seed, seconds, traced)
    count = cycles(seconds, scale.cycles_per_s)
    result.scale.update({
        "nodes": scale.nodes, "moves_per_cycle": scale.moves_per_cycle, "cycles": count,
    })
    if traced:
        _traced(result, seed, count, scale)
        return result
    meter = SpeedMeter()
    (graph, backbone), setups = repeat_setup(
        lambda: _setup(seed, scale, result.spans), meter
    )
    builds, move_s, reports, last = _loop(result, graph, backbone, seed, count, scale, meter)
    _finish(result, graph, reports, last)
    end_to_end(result, setups, move_s, builds, meter)
    return result


def _traced(result: Result, seed: int, count: int, scale: Scale) -> None:
    spans = result.spans = Spans(f"{NAME}-{seed}")
    span_ns = span_overhead_ns(spans)
    with spans.span("harness.run", workload=NAME, seed=seed):
        started = clock()
        (graph, backbone), _ = _setup(seed, scale, spans)
        with spans.span("trace.probe_tiler"):
            t0 = clock()
            Tiler(graph.positions, graph.radius, CONFIG)
            tiler_s = clock() - t0
        builds, move_s, reports, last = _loop(
            result, graph, backbone, seed, count, scale, SpeedMeter(math.inf)
        )
        _finish(result, graph, reports, last)
        wall = clock() - started
    layer_metrics(result, wall, span_ns)
    first_build_s = spans.durations("shard.build")[0]
    rebuilt = [r for r, _ in reports]
    cascaded = [c for _, c in reports]
    metric = result.metric
    metric("shard.tiles", result.invariants["shard.tiles"], "count")
    metric("shard.stitch_rounds", result.invariants["shard.stitch_rounds"], "count")
    metric("shard.tiler_share_of_build", ratio(tiler_s, first_build_s), "ratio")
    moves = len(reports)
    metric("shard.move_tiles_rebuilt_mean", ratio(sum(rebuilt), moves), "count", moves)
    metric("shard.move_tiles_cascaded_total", sum(cascaded), "count", moves)
    metric("shard.cascading_move_share", ratio(sum(1 for c in cascaded if c), moves),
           "ratio", moves)
    result.detail.update({
        "shard.tiler_build_s": tiler_s,
        "shard.build_s": quantile(builds, 0.5),
        "shard.stitch_self_s": first_build_s - tiler_s,
        "shard.move_p50_ms": quantile(move_s, 0.5) * 1e3,
        "shard.move_max_ms": max(move_s, default=0.0) * 1e3,
    })
