"""Workload ``service-mixed``: the backbone service under reads and writes.

One client submits requests from ``WorkloadGenerator`` (the default mix:
route 0.60, dominator 0.25, broadcast_plan 0.10, backbone 0.05, over
zipf(1.1) node popularity) to a default ``BackboneService`` in a closed
loop.  Before every ``writes_every``-th request it runs a write batch
that moves ``writes_per_batch`` nodes by up to 0.1 radii per axis.
Reads hit the route, plan and backbone caches; the first read that
finds pending writes pays the lazy repair plus a snapshot rebuild,
which rebuilds the ``ClusterheadRouter`` overlay tables.  This is the
only workload through ``repro.service`` and ``repro.routing``: a change
that speeds cached reads but makes invalidation or refresh dearer shows
here.

A run serves several deployments one after the other, each with a
service and a request stream of its own: ``cycles_per_deployment``
cycles of ``writes_every`` requests and a write batch, then the request
that absorbs the last batch.  Broadcast-plan cache misses are about
six per cent of the requests but most of the request time, and what a
plan costs follows the deployment's backbone: over seeds 10 to 19 the
backbone had 507 to 654 nodes and a plan took 5.2 to 7.6 ms.  Five
deployments per run keep one unusual backbone from setting a run's
numbers.

* set-up: generating one deployment and constructing its service.
* ``op``: one ``submit`` call that absorbed no writes.
* ``aux``: a ``submit`` that absorbed pending writes (had work pending
  before the call and none after it).  There is one per write batch.

The traced run instead refreshes explicitly after each write batch and
times the refresh, and rebuilds the router on the refreshed topology a
few times to split refresh time between repair and routing tables.
"""

from __future__ import annotations

import gc
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

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
    span_overhead_ns,
)
from repro import BackboneService, ClusterheadRouter, is_weakly_connected_dominating_set
from repro.service.workload import WorkloadConfig, WorkloadGenerator
from repro.shard.bench import jittered_grid

NAME = "service-mixed"

WRITE_REACH = 0.1

#: Service counters the traced run reports, summed over the deployments.
COUNTERS = (
    "route_cache_hits", "route_cache_misses", "plan_cache_hits", "plan_cache_misses",
    "repairs", "rebuilds_full", "route_cache_invalidated",
)


@dataclass(frozen=True)
class Scale:
    nodes: int
    writes_every: int
    writes_per_batch: int
    #: Cycles one deployment serves before the next is set up.
    cycles_per_deployment: int
    #: Cycles a second of run holds (see :func:`harness.cycles`).
    cycles_per_s: float
    #: Refreshes of the traced run after which the router is rebuilt.
    router_probes: int


#: 10 cycles in 25 s on 5 deployments: 8,005 requests and 10 write batches.
FULL = Scale(nodes=2_000, writes_every=800, writes_per_batch=5, cycles_per_deployment=2,
             cycles_per_s=0.4, router_probes=3)
SMOKE = Scale(nodes=300, writes_every=50, writes_per_batch=5, cycles_per_deployment=2,
              cycles_per_s=6.0, router_probes=2)


def _deployments(seed: int, count: int, scale: Scale) -> List[Tuple[int, int]]:
    """``(seed, cycles)`` of each deployment of a run of ``count``
    cycles; the deployment seeds are drawn from the run's ``seed``."""
    rng = random.Random(seed)
    plan = []
    while count > 0:
        here = min(count, scale.cycles_per_deployment)
        plan.append((rng.randrange(2**32), here))
        count -= here
    return plan


def _setup(seed: int, scale: Scale, spans) -> Tuple[BackboneService, float]:
    started = clock()
    with spans.span("graphs.udg_build", nodes=scale.nodes):
        graph = jittered_grid(scale.nodes, seed)
    with spans.span("service.start"):
        service = BackboneService(graph)
    return service, clock() - started


def _flipping_move(moves: MoveStream, graph) -> Tuple[Any, Any]:
    """The next move of the stream that gains or loses a link.

    A move that changes no link leaves the service nothing to absorb;
    with such moves kept, the write batches that changed anything
    ranged from 5 to 10 of a run's 10 across seeds, and with them the
    plan-cache misses and refreshes the run paid for."""
    while True:
        node, target = moves.next()
        reach = set(graph.nodes_within(target, graph.radius)) - {node}
        if reach != set(graph.adjacency(node)):
            return node, target


def _valid(response) -> bool:
    request = response.request
    if request.op != "route":
        return True
    path = response.value
    return path[0] == request.src and path[-1] == request.dst


class _Tally:
    """What the run measured, over all its deployments."""

    def __init__(self) -> None:
        self.setups = Sample()
        self.requests = 0
        #: ``submit`` calls that absorbed pending writes, and the rest.
        self.absorbed = Sample()
        self.served = Sample()
        self.by_op: Dict[str, List[float]] = defaultdict(list)
        self.writes: List[float] = []
        self.refresh: List[float] = []
        self.router: List[float] = []
        self.counters: Counter = Counter()
        self.hops = 0
        self.start_backbone = 0


def _serve(result: Result, service: BackboneService, seed: int, count: int,
           scale: Scale, meter: SpeedMeter, tally: _Tally) -> bool:
    """``count`` cycles of ``writes_every`` requests and one write batch
    on one deployment, then the request that absorbs the last batch;
    ``False`` after a write that raised."""
    spans = result.spans
    traced = spans.enabled
    nodes = sorted(service.graph.positions)
    total = count * scale.writes_every + 1
    requests = WorkloadGenerator(nodes, WorkloadConfig(queries=total, seed=seed))
    moves = MoveStream(service.graph, f"writes-{seed}", WRITE_REACH)
    for index, request in enumerate(requests.requests()):
        if index and index % scale.writes_every == 0:
            with spans.span("service.write_batch", moves=scale.writes_per_batch):
                t0 = clock()
                try:
                    for _ in range(scale.writes_per_batch):
                        node, target = _flipping_move(moves, service.graph)
                        service.move(node, target.x, target.y)
                except Exception as exc:  # noqa: BLE001 - a failed write is counted
                    result.error("move", exc)
                    result.op(False)
                    return False
                tally.writes.append(clock() - t0)
            result.op(True, scale.writes_per_batch)
            if traced:
                _refresh(service, spans, tally, scale)
        pending = service.has_pending_work
        meter.tick()
        with spans.span("service.submit", op=request.op):
            t0 = clock()
            response = service.submit(request)
            elapsed = clock() - t0
        tally.requests += 1
        tally.by_op[request.op].append(elapsed)
        if pending and not service.has_pending_work:
            tally.absorbed.add(t0, elapsed)
        else:
            tally.served.add(t0, elapsed)
        result.op(response.ok)
        if response.ok:
            result.check("responses_valid", _valid(response))
            if request.op == "route":
                tally.hops += len(response.value) - 1
        elif len(result.detail.setdefault("errors", [])) < 5:
            result.detail["errors"].append(f"{request.op}: {response.error}")
    return True


def _refresh(service: BackboneService, spans, tally: _Tally, scale: Scale) -> None:
    """Traced runs only: absorb the writes now, and on the first few
    refreshes rebuild the router to split refresh time."""
    if not service.has_pending_work:
        return
    with spans.span("service.refresh"):
        t0 = clock()
        service.refresh()
        tally.refresh.append(clock() - t0)
    if len(tally.router) < scale.router_probes:
        with spans.span("trace.probe_router"):
            # On a fresh copy, like the service's own snapshot router.
            backbone = service.backbone().value
            graph = service.graph.copy()
            t0 = clock()
            ClusterheadRouter(graph, backbone)
            tally.router.append(clock() - t0)


def _final_check(result: Result, service: BackboneService) -> None:
    with result.spans.span("check.backbone"):
        service.refresh()
        backbone = service.backbone().value
        wcds = is_weakly_connected_dominating_set(service.graph, backbone.dominators)
    result.check("backbone_is_wcds", wcds)


def _serve_all(result: Result, plan: List[Tuple[int, int]], scale: Scale,
               meter: SpeedMeter, tally: _Tally) -> None:
    """Set up and serve every deployment of ``plan`` in turn, keeping
    only the current one; stops after a write that raised.

    Each set-up starts from a collected heap, as it would in a fresh
    process, and ``meter`` probes before and after it."""
    spans = result.spans
    for seed, count in plan:
        service = None  # the previous deployment is collected too
        with spans.span("gc.collect"):
            gc.collect()
        meter.probe()
        started = clock()
        service, seconds = _setup(seed, scale, spans)
        tally.setups.add(started, seconds)
        meter.probe()
        tally.start_backbone += len(service.backbone().value.dominators)
        served = _serve(result, service, seed, count, scale, meter, tally)
        _final_check(result, service)
        tally.counters.update({name: service.metrics.counters[name] for name in COUNTERS})
        if not served:
            break
    result.invariants.update({
        "service.requests": tally.requests,
        "service.route_hops": tally.hops,
        "service.start_backbone_size": tally.start_backbone,
    })


def run(seed: int, seconds: float, traced: bool, scale: Scale = FULL) -> Result:
    """One run of the workload: untraced (end-to-end metrics) or traced
    (per-layer metrics)."""
    result = Result(NAME, seed, seconds, traced)
    count = cycles(seconds, scale.cycles_per_s)
    plan = _deployments(seed, count, scale)
    result.scale.update({
        "nodes": scale.nodes, "writes_every": scale.writes_every,
        "writes_per_batch": scale.writes_per_batch, "write_reach": WRITE_REACH,
        "cycles": count, "deployments": len(plan),
    })
    if traced:
        _traced(result, seed, plan, scale)
        return result
    meter = SpeedMeter()
    tally = _Tally()
    _serve_all(result, plan, scale, meter, tally)
    result.check("writes_were_absorbed", bool(tally.absorbed))
    end_to_end(result, tally.setups, tally.served, tally.absorbed, meter)
    return result


def _traced(result: Result, seed: int, plan: List[Tuple[int, int]], scale: Scale) -> None:
    spans = result.spans = Spans(f"{NAME}-{seed}")
    span_ns = span_overhead_ns(spans)
    tally = _Tally()
    with spans.span("harness.run", workload=NAME, seed=seed):
        started = clock()
        _serve_all(result, plan, scale, SpeedMeter(math.inf), tally)
        wall = clock() - started
    layer_metrics(result, wall, span_ns)
    counters = tally.counters
    total = sum(sum(times) for times in tally.by_op.values())
    metric = result.metric
    for op in ("route", "dominator", "broadcast_plan", "backbone"):
        metric(f"service.{op}_time_share", ratio(sum(tally.by_op.get(op, [])), total),
               "ratio", len(tally.by_op.get(op, [])))
    for cache in ("route_cache", "plan_cache"):
        hits = counters[f"{cache}_hits"]
        metric(f"service.{cache}_hit_rate",
               ratio(hits, hits + counters[f"{cache}_misses"]), "ratio")
    for name in ("repairs", "rebuilds_full", "route_cache_invalidated"):
        metric(f"service.{name}", counters[name], "count")
    pairs = list(zip(tally.refresh, tally.router))
    if pairs:
        metric("mobility.repair_share",
               1.0 - quantile([router / refresh for refresh, router in pairs], 0.5),
               "ratio", len(pairs))
    result.detail.update({
        f"service.{op}_p50_us": quantile(times, 0.5) * 1e6
        for op, times in tally.by_op.items()
    })
    result.detail.update({
        "service.request_p50_us": quantile(tally.served, 0.5) * 1e6,
        "service.request_p99_us": quantile(tally.served, 0.99) * 1e6,
        "service.write_batch_p50_ms": quantile(tally.writes, 0.5) * 1e3,
        **({"service.refresh_p50_ms": quantile(tally.refresh, 0.5) * 1e3}
           if tally.refresh else {}),
        **({"routing.router_build_ms": quantile(tally.router, 0.5) * 1e3}
           if tally.router else {}),
    })
