"""Workload ``pool-zipf``: skewed reads through the spawn-worker serve pool.

One client process drives a ``ShardServePool`` with two spawn workers
(the machine's core count) in a closed loop: each ``query_batch`` call
waits for its answers before the next is sent.  The op mix is route
0.60, dominator 0.25 and member 0.15; sources are zipf(1.1) over a
seeded shuffle of the node ids, and each route target is drawn from
the nodes the source's tile owns, so every query is answerable.  The
skew piles load onto a few tiles and so onto one worker.

A run is a number of cycles: ``batches_per_move`` batches, then one
node moves by up to 0.3 radii per axis, which re-stitches tiles and
reloads the workers' replicas, and the popularity order is shuffled
again.  Batch latency depends on whether the hottest nodes share a
worker; with one order per run, a run's batch latency hinged on that
one draw, so every cycle draws its own.  A move stays inside the node's
tile: ``ShardServePool`` at this commit loses a dominator that moves
into a tile sorted before its old one (its global MIS set is not
reference-counted per tile), which this workload must not trip over.

This is the only workload that crosses the process boundary: pipe
IPC, chunked dispatch, worker replicas and replica reloads.

* ``op``: one ``query_batch`` call of ``batch`` queries.
* ``aux``: one ``pool.move`` call.

The traced run replays its first batches and moves on an inline pool
(no workers) over an identical graph: the answers must match, and the
time ratios isolate what the workers and their IPC add or save.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
from repro import is_weakly_connected_dominating_set
from repro.service.workload import zipf_weights
from repro.shard import ShardConfig, ShardServePool
from repro.shard.bench import jittered_grid

NAME = "pool-zipf"

MIX = (("route", 0.60), ("dominator", 0.25), ("member", 0.15))
ZIPF_EXPONENT = 1.1
MOVE_REACH = 0.3


@dataclass(frozen=True)
class Scale:
    nodes: int
    workers: int
    batch: int
    batches_per_move: int
    #: Cycles a second of run holds (see :func:`harness.cycles`).
    cycles_per_s: float
    #: Batches of the traced run replayed on the inline pool.
    replay_batches: int


#: One move per five batches, not per twenty: a move's cost is
#: heavy-tailed (2 or 4 tiles re-stitched, sometimes dozens), and the
#: median of the 25 moves a run held at one per twenty spread 0.26
#: across ten seeds (README, "Workloads").  75 cycles in 25 s: 375
#: batches and 75 moves.
FULL = Scale(nodes=20_000, workers=2, batch=256, batches_per_move=5, cycles_per_s=3.0,
             replay_batches=100)
SMOKE = Scale(nodes=300, workers=2, batch=32, batches_per_move=5, cycles_per_s=18.0,
              replay_batches=40)


class _Queries:
    """The seeded zipf query stream."""

    def __init__(self, nodes: List[Any], seed: int) -> None:
        self.rng = random.Random(seed)
        self.ranked = sorted(nodes)
        self.rng.shuffle(self.ranked)  # popularity decoupled from id order
        self.cum = list(itertools.accumulate(zipf_weights(len(nodes), ZIPF_EXPONENT)))
        self.ops = [op for op, _ in MIX]
        self.op_cum = list(itertools.accumulate(weight for _, weight in MIX))
        self._owned: Dict[Any, List[Any]] = {}

    def batch(self, size: int, tiler) -> List[Tuple[Any, ...]]:
        rng = self.rng
        ops = rng.choices(self.ops, cum_weights=self.op_cum, k=size)
        sources = rng.choices(self.ranked, cum_weights=self.cum, k=size)
        out: List[Tuple[Any, ...]] = []
        for op, src in zip(ops, sources):
            if op == "route":
                tile = tiler.owner[src]
                owned = self._owned.get(tile)
                if owned is None:
                    owned = self._owned[tile] = tiler.owned(tile)
                out.append(("route", src, owned[rng.randrange(len(owned))]))
            else:
                out.append((op, src))
        return out

    def next_cycle(self) -> None:
        """A node moved, so tile ownership may have changed: forget the
        cached lists.  Draw a new popularity order."""
        self._owned.clear()
        self.rng.shuffle(self.ranked)


def _valid(graph, query, answer) -> bool:
    op = query[0]
    if op == "route":
        src, dst = query[1], query[2]
        return (
            answer[0] == src
            and answer[-1] == dst
            and all(b in graph.adjacency(a) for a, b in zip(answer, answer[1:]))
        )
    if op == "dominator":
        return answer == query[1] or answer in graph.adjacency(query[1])
    return isinstance(answer, bool)


class _Tally:
    """Per-run counts over the answers: tile load and route lengths."""

    def __init__(self) -> None:
        self.tile_queries: Counter = Counter()
        self.routes = 0
        self.hops = 0
        self.dominator_sum = 0
        self.members = 0
        self.tiles_rebuilt = 0

    def invariants(self) -> Dict[str, int]:
        return {
            "pool.route_hops": self.hops,
            "pool.dominator_sum": self.dominator_sum,
            "pool.members": self.members,
            "shard.tiles_rebuilt": self.tiles_rebuilt,
        }


def _setup(seed: int, scale: Scale, spans) -> Tuple[ShardServePool, float]:
    started = clock()
    with spans.span("graphs.udg_build", nodes=scale.nodes):
        graph = jittered_grid(scale.nodes, seed)
    with spans.span("pool.start", workers=scale.workers):
        pool = ShardServePool(graph, ShardConfig(workers=scale.workers))
    return pool, clock() - started


def _loop(result: Result, pool: ShardServePool, seed: int, count: int,
          scale: Scale, meter: SpeedMeter, log: Optional[List[Any]] = None):
    """``count`` cycles of ``batches_per_move`` batches and one move;
    stops at the first call that raises."""
    spans = result.spans
    queries = _Queries(list(pool.graph.positions), seed)
    moves = MoveStream(pool.graph, f"moves-{seed}", MOVE_REACH)
    tally = _Tally()
    batch_s = Sample()
    move_s = Sample()
    for _ in range(count):
        for _ in range(scale.batches_per_move):
            with spans.span("inputs.batch"):
                batch = queries.batch(scale.batch, pool.tiler)
            meter.tick()
            with spans.span("pool.query_batch", queries=len(batch)):
                t0 = clock()
                try:
                    answers = pool.query_batch(batch)
                except Exception as exc:  # noqa: BLE001 - a failed batch is counted
                    result.error("query_batch", exc)
                    result.op(False, len(batch))
                    return batch_s, move_s, tally
                batch_s.add(t0)
            with spans.span("check.answers"):
                _check_answers(result, pool, batch, answers, tally)
            if log is not None:
                log.append(("batch", batch, answers))
        with spans.span("inputs.move"):
            node, target = _move_within_tile(moves, pool.tiler)
        meter.tick()
        with spans.span("pool.move") as attrs:
            t0 = clock()
            try:
                report = pool.move(node, target)
            except Exception as exc:  # noqa: BLE001 - a failed move is counted
                result.error("pool.move", exc)
                result.op(False)
                return batch_s, move_s, tally
            move_s.add(t0)
            attrs.update(rebuilt=len(report.rebuilt))
        result.op(True)
        tally.tiles_rebuilt += len(report.rebuilt)
        with spans.span("inputs.next_cycle"):
            queries.next_cycle()
        if log is not None:
            log.append(("move", node, target))
    return batch_s, move_s, tally


def _move_within_tile(moves: MoveStream, tiler) -> Tuple[Any, Any]:
    """The next move of the stream whose target stays in the node's tile."""
    while True:
        node, target = moves.next()
        if tiler.tile_of(target) == tiler.owner[node]:
            return node, target


def _check_answers(result: Result, pool, batch, answers, tally: _Tally) -> None:
    """Validate one batch's answers, count failures and tally load."""
    graph = pool.graph
    owner = pool.tiler.owner
    valid = True
    missing = 0
    for query, answer in zip(batch, answers):
        tally.tile_queries[owner[query[1]]] += 1
        if answer is None:
            missing += 1
            continue
        valid = valid and _valid(graph, query, answer)
        if query[0] == "route":
            tally.routes += 1
            tally.hops += len(answer) - 1
        elif query[0] == "dominator":
            tally.dominator_sum += answer
        else:
            tally.members += answer
    result.check("answers_valid", valid)
    result.op(True, len(batch) - missing)
    result.op(False, missing)


def _final_check(result: Result, pool: ShardServePool) -> None:
    """The pool's incrementally kept membership must be the stitched
    backbone's, and that backbone a WCDS of the churned graph."""
    with result.spans.span("check.backbone"):
        members = pool.backbone_nodes()
        stitched = set(pool.backbone.result().dominators)
        wcds = is_weakly_connected_dominating_set(pool.graph, members)
    result.check("membership_equals_stitched", members == stitched)
    result.check("backbone_is_wcds", wcds)
    result.invariants["shard.tiles"] = len(pool.tiler.tiles())


def run(seed: int, seconds: float, traced: bool, scale: Scale = FULL) -> Result:
    """One run of the workload: untraced (end-to-end metrics) or traced
    (per-layer metrics)."""
    result = Result(NAME, seed, seconds, traced)
    count = cycles(seconds, scale.cycles_per_s)
    result.scale.update({
        "nodes": scale.nodes, "workers": scale.workers, "batch": scale.batch,
        "batches_per_move": scale.batches_per_move, "cycles": count,
        "mix": [list(m) for m in MIX], "zipf": ZIPF_EXPONENT,
    })
    if traced:
        _traced(result, seed, count, scale)
        return result
    pools: List[ShardServePool] = []

    def setup() -> Tuple[ShardServePool, float]:
        if pools:
            pools.pop().close()
        pool, setup_s = _setup(seed, scale, result.spans)
        pools.append(pool)
        return pool, setup_s

    meter = SpeedMeter()
    try:
        pool, setups = repeat_setup(setup, meter)
        batch_s, move_s, tally = _loop(result, pool, seed, count, scale, meter)
        _final_check(result, pool)
        result.invariants.update(tally.invariants())
    finally:
        for pool in pools:
            pool.close()
    end_to_end(result, setups, batch_s, move_s, meter)
    return result


def _replay(log: List[Any], seed: int, scale: Scale, result: Result) -> Dict[str, Any]:
    """Serve the logged batches and moves again from an inline pool on
    an identical graph; the answers must be the same."""
    graph = jittered_grid(scale.nodes, seed)
    started = clock()
    pool = ShardServePool(graph, ShardConfig(workers=0))
    start_s = clock() - started
    batch_s: List[float] = []
    move_s: List[float] = []
    same = True
    for entry in log:
        if entry[0] == "batch":
            if len(batch_s) == scale.replay_batches:
                break
            t0 = clock()
            answers = pool.query_batch(entry[1])
            batch_s.append(clock() - t0)
            same = same and answers == entry[2]
        else:
            t0 = clock()
            pool.move(entry[1], entry[2])
            move_s.append(clock() - t0)
    result.check("inline_equals_pooled", same)
    return {"start_s": start_s, "batch_s": batch_s, "move_s": move_s}


def _traced(result: Result, seed: int, count: int, scale: Scale) -> None:
    spans = result.spans = Spans(f"{NAME}-{seed}")
    span_ns = span_overhead_ns(spans)
    log: List[Any] = []
    pool = None
    try:
        with spans.span("harness.run", workload=NAME, seed=seed):
            started = clock()
            pool, _ = _setup(seed, scale, spans)
            start_s = spans.durations("pool.start")[0]
            batch_s, move_s, tally = _loop(
                result, pool, seed, count, scale, SpeedMeter(math.inf), log
            )
            _final_check(result, pool)
            result.invariants.update(tally.invariants())
            with spans.span("trace.inline_replay"):
                inline = _replay(log, seed, scale, result)
            wall = clock() - started
    finally:
        if pool is not None:
            pool.close()
    layer_metrics(result, wall, span_ns)
    replayed = len(inline["batch_s"])
    pooled_p50 = quantile(batch_s[:replayed], 0.5)
    inline_p50 = quantile(inline["batch_s"], 0.5)
    replayed_moves = len(inline["move_s"])
    metric = result.metric
    metric("shard.tiles", result.invariants["shard.tiles"], "count")
    metric("pool.parallel_efficiency", ratio(inline_p50, scale.workers * pooled_p50),
           "ratio", replayed)
    metric("pool.start_over_inline", ratio(start_s, inline["start_s"]), "ratio")
    if replayed_moves:
        metric("pool.move_ipc_share",
               1.0 - ratio(quantile(inline["move_s"], 0.5),
                           quantile(move_s[:replayed_moves], 0.5)),
               "ratio", replayed_moves)
    hot = max(1, len(tally.tile_queries) // 10)
    top = sum(count for _, count in tally.tile_queries.most_common(hot))
    metric("pool.hot_tile_share", ratio(top, sum(tally.tile_queries.values())), "ratio")
    metric("pool.route_hops_mean", ratio(tally.hops, tally.routes), "count", tally.routes)
    result.detail.update({
        "pool.start_s": start_s,
        "pool.inline_start_s": inline["start_s"],
        "pool.batch_p50_ms": pooled_p50 * 1e3,
        "pool.inline_batch_p50_ms": inline_p50 * 1e3,
        "pool.move_p50_ms": quantile(move_s, 0.5) * 1e3,
        **({"pool.move_inline_p50_ms": quantile(inline["move_s"], 0.5) * 1e3}
           if replayed_moves else {}),
    })
