"""Workload ``protocol-sim``: the distributed protocols on the batched
simulator.

Algorithm II and Algorithm I run to quiescence, again and again, on
seeded uniform random UDGs.  This is the only workload in which
simulator delivery and protocol handlers do most of the work, so a
compiled Algorithm II or a simulator-core change must move it, and
only it.  Algorithm I drives the same simulator differently (three
sequential phases and long flood/echo waves instead of bursty
same-tick fan-out), so a change that helps one use and hurts the other
shows here too.

* set-up: generating one deployment, ``connected_random_udg``.
* ``op``: one ``algorithm2_distributed`` run on the batched engine.
* ``aux``: one ``algorithm1_distributed`` run on the same engine.

A run is a number of cycles; each cycle generates a deployment of its
own and runs Algorithm II five times and Algorithm I three times on it.
Algorithm I's message count depends on the deployment (it spread 0.13,
interquartile range over median, across ten seeds at 800 and still
0.11 at 3,000 nodes), so a run measures many small deployments rather
than one large one: its numbers then do not hinge on one unusual graph.
Every deployment gets the same calls, so the first Algorithm II run on
each, which builds the batched simulator's cached audience tables, is
always one in five.

The traced run splits Algorithm II's time between the simulator and
the protocol handlers by timing every handler call of a benchmark-side
``Algorithm2Node`` subclass, with a calibrated per-call timer cost
subtracted.  Algorithm I's split comes from the phase spans of the
program's own ``Tracer``.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

from harness import (
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
from repro import (
    Tracer,
    algorithm1_centralized,
    algorithm1_distributed,
    algorithm2_distributed,
    connected_random_udg,
    greedy_mis,
    is_weakly_connected_dominating_set,
)
from repro.kernels.bfs import graph_to_csr
from repro.mis.ranking import id_ranking
from repro.sim import SimConfig, make_simulator
from repro.wcds.algorithm2 import Algorithm2Node

NAME = "protocol-sim"

SIM = SimConfig(engine="batched")

#: One cycle: five Algorithm II runs and three Algorithm I runs on one
#: deployment.  Algorithm I takes about 1.6 times as long, so a cycle
#: spends about half its time in each.
CYCLE = ("alg2", "alg2", "alg2", "alg2", "alg2", "alg1", "alg1", "alg1")

#: Algorithm I's phases, as named by its spans on the program's tracer.
ALG1_PHASES = ("election", "levels", "marking")


@dataclass(frozen=True)
class Scale:
    """Deployment size (side chosen for an average degree near 20) and
    the cycles a second of run holds (see :func:`harness.cycles`)."""

    nodes: int
    side: float
    cycles_per_s: float


#: 22 cycles in 25 s: 110 Algorithm II runs and 66 Algorithm I runs.
FULL = Scale(nodes=800, side=11.2, cycles_per_s=0.88)
SMOKE = Scale(nodes=300, side=7.0, cycles_per_s=1.0)


class HandlerClock:
    """Totals of one timed Algorithm II run."""

    def __init__(self) -> None:
        self.busy_ns = 0
        self.calls = 0
        self.send_ns = 0
        self.sends = 0


class TimedAlgorithm2Node(Algorithm2Node):
    """``Algorithm2Node`` whose construction and handler calls are timed.

    Sends made inside a handler are timed as well and later moved from
    the handler's time to the simulator's, since ``transmit`` is
    simulator code.
    """

    def __init__(self, ctx, ranks, clock: HandlerClock) -> None:
        self._clock = clock
        broadcast, send = ctx.broadcast, ctx.send

        def timed_broadcast(kind: str, **data: Any) -> None:
            t0 = perf_counter_ns()
            broadcast(kind, **data)
            clock.send_ns += perf_counter_ns() - t0
            clock.sends += 1

        def timed_send(dest, kind: str, **data: Any) -> None:
            t0 = perf_counter_ns()
            send(dest, kind, **data)
            clock.send_ns += perf_counter_ns() - t0
            clock.sends += 1

        ctx.broadcast = timed_broadcast
        ctx.send = timed_send
        t0 = perf_counter_ns()
        super().__init__(ctx, ranks)
        clock.busy_ns += perf_counter_ns() - t0
        clock.calls += 1

    def on_start(self) -> None:
        clock = self._clock
        t0 = perf_counter_ns()
        super().on_start()
        clock.busy_ns += perf_counter_ns() - t0
        clock.calls += 1

    def on_message(self, msg) -> None:
        clock = self._clock
        t0 = perf_counter_ns()
        super().on_message(msg)
        clock.busy_ns += perf_counter_ns() - t0
        clock.calls += 1


class _NoopBase:
    def on_message(self, msg) -> None:
        pass


class _TimedNoop(_NoopBase):
    """The timed-handler shape of :class:`TimedAlgorithm2Node` around a
    handler that does nothing."""

    def __init__(self, clock: HandlerClock) -> None:
        self._clock = clock

    def on_message(self, msg) -> None:
        clock = self._clock
        t0 = perf_counter_ns()
        super().on_message(msg)
        clock.busy_ns += perf_counter_ns() - t0
        clock.calls += 1


def calibrate_handler_timer(calls: int = 200_000) -> Tuple[float, float]:
    """``(inside_ns, total_ns)`` of the handler timer, per call.

    ``inside_ns`` is what the timer adds to the interval it measures
    (timed around a no-op); ``total_ns`` is its whole wall cost, from
    the difference between timed and untimed no-op calls.
    """
    clock = HandlerClock()
    timed = _TimedNoop(clock).on_message
    plain = _NoopBase().on_message
    best_timed = best_plain = float("inf")
    for _ in range(3):
        started = perf_counter_ns()
        for _ in range(calls):
            timed(None)
        best_timed = min(best_timed, perf_counter_ns() - started)
        started = perf_counter_ns()
        for _ in range(calls):
            plain(None)
        best_plain = min(best_plain, perf_counter_ns() - started)
    inside = clock.busy_ns / clock.calls
    return inside, max(inside, (best_timed - best_plain) / calls)


def _alg2_sets(mis, additional) -> Tuple[frozenset, frozenset]:
    mis = frozenset(mis)
    return mis, frozenset(additional) - mis


class _Protocols:
    """Runs, checks and counts protocol runs on the current deployment."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.graph: Any = None
        self.index = -1
        self.edges = 0
        #: Per deployment: the first run's backbone and exact counts.
        self.alg2_ref: Dict[int, Tuple[frozenset, frozenset]] = {}
        self.alg2_counts: Dict[int, Tuple[int, int, float]] = {}
        self.alg1_ref: Dict[int, frozenset] = {}
        self.alg1_counts: Dict[int, Tuple[int, float]] = {}
        #: Time splits of the timed Algorithm II runs that completed.
        self.splits: List[Dict[str, float]] = []

    def deploy(self, graph) -> None:
        """Run the next calls on ``graph``."""
        self.graph = graph
        self.index += 1
        self.edges += graph.num_edges

    def _alg2_check(self, sets, counts) -> bool:
        """The first run on a deployment must be a WCDS over the
        id-greedy MIS; every later run must repeat it exactly, message
        counts included."""
        check = self.result.check
        index = self.index
        if index not in self.alg2_ref:
            mis, additional = sets
            self.alg2_ref[index], self.alg2_counts[index] = sets, counts
            with self.result.spans.span("check.alg2"):
                wcds = is_weakly_connected_dominating_set(self.graph, mis | additional)
                greedy = mis == greedy_mis(self.graph)
            return check("alg2_is_wcds", wcds) & check("alg2_mis_is_greedy", greedy)
        return (check("alg2_repeats", sets == self.alg2_ref[index])
                & check("alg2_counts_repeat", counts == self.alg2_counts[index]))

    def _alg1_check(self, dominators, counts) -> bool:
        """The first run on a deployment must equal the centralized twin
        (exact under the synchronous latency model); later runs must
        repeat it."""
        check = self.result.check
        index = self.index
        if index not in self.alg1_ref:
            self.alg1_ref[index], self.alg1_counts[index] = dominators, counts
            with self.result.spans.span("check.alg1"):
                oracle = algorithm1_centralized(self.graph).dominators
            return check("alg1_equals_centralized", dominators == oracle)
        return (check("alg1_repeats", dominators == self.alg1_ref[index])
                & check("alg1_counts_repeat", counts == self.alg1_counts[index]))

    def alg2(self) -> float:
        """One ``algorithm2_distributed`` run; returns its time."""
        started = clock()
        try:
            run = algorithm2_distributed(self.graph, sim=SIM)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            self.result.error("algorithm2_distributed", exc)
            self.result.op(False)
            return clock() - started
        elapsed = clock() - started
        stats = run.meta["stats"]
        counts = (stats.messages_sent, stats.deliveries, stats.finish_time)
        sets = _alg2_sets(run.mis_dominators, run.additional_dominators)
        self.result.op(self._alg2_check(sets, counts))
        return elapsed

    def alg2_timed(self, timer: Tuple[float, float]) -> float:
        """One Algorithm II run with timed handlers; keeps its split in
        ``splits`` and returns its time without the timer overhead.

        Must reach the same backbone and message counts as
        ``algorithm2_distributed`` (checked against the same reference).
        """
        graph = self.graph
        spans = self.result.spans
        inside_ns, total_ns = timer
        hc = HandlerClock()
        ranking = id_ranking(graph)
        with spans.span("sim.alg2_run") as attrs:
            started = clock()
            try:
                sim = make_simulator(
                    graph, lambda ctx: TimedAlgorithm2Node(ctx, ranking, hc), SIM
                )
                stats = sim.run()
                states = sim.collect_results()
            except Exception as exc:  # noqa: BLE001 - a failed run is counted
                self.result.error("timed Algorithm II run", exc)
                self.result.op(False)
                return clock() - started
            run_s = clock() - started
            wrapped = hc.calls + hc.sends
            overhead_s = wrapped * total_ns * 1e-9
            handler_s = (
                hc.busy_ns - hc.calls * inside_ns
                - (hc.send_ns - hc.sends * inside_ns + hc.sends * total_ns)
            ) * 1e-9
            spans.add("wcds.alg2_handlers", started, started + handler_s, calls=hc.calls)
            spans.add("trace.handler_timer", started, started + overhead_s, calls=wrapped)
            attrs.update(messages=stats.messages_sent, deliveries=stats.deliveries)
        mis = [n for n, s in states.items() if s["color"] == "black"]
        additional = [n for n, s in states.items() if s["is_additional"]]
        counts = (stats.messages_sent, stats.deliveries, stats.finish_time)
        self.result.op(self._alg2_check(_alg2_sets(mis, additional), counts))
        self.splits.append({
            "index": self.index,
            "run_s": run_s - overhead_s,
            "handler_s": handler_s,
            "calls": hc.calls,
            "deliveries": stats.deliveries,
        })
        return run_s - overhead_s

    def alg1(self) -> float:
        """One ``algorithm1_distributed`` run; returns its time."""
        spans = self.result.spans
        tracer = Tracer() if spans.enabled else None
        with spans.span("alg1.run"):
            started = clock()
            try:
                run = algorithm1_distributed(self.graph, sim=SIM, tracer=tracer)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted
                self.result.error("algorithm1_distributed", exc)
                self.result.op(False)
                return clock() - started
            elapsed = clock() - started
            if tracer is not None:
                for phase in ALG1_PHASES:
                    span = tracer.find(phase)[0]
                    spans.add(f"alg1.{phase}", span.start, span.end)
        counts = (run.meta["total_messages"], run.meta["finish_time"])
        self.result.op(self._alg1_check(run.dominators, counts))
        return elapsed


def _loop(seed: int, count: int, scale: Scale, protocols: _Protocols,
          alg2: Callable[[], float], meter: SpeedMeter,
          after: Callable[[], None] = lambda: None) -> Tuple[Sample, Sample, Sample]:
    """``count`` cycles, each on a deployment of its own, drawn one after
    the other from one generator seeded with ``seed``: generate it (the
    set-up), run ``CYCLE`` on it, then ``after``.

    Every generation and protocol run starts from a collected heap, as
    it would in a process of its own, and only the current deployment
    is kept.  Otherwise a full collection of the garbage left by earlier
    runs lands inside every fourth or fifth run, and those runs, with
    the first on each deployment, made up the slowest tenth: the p90
    then fell between two clusters and spread 0.18 across ten seeds.
    """
    spans = protocols.result.spans
    rng = random.Random(seed)
    setup = Sample()
    out = {"alg2": Sample(), "alg1": Sample()}
    calls = {"alg2": alg2, "alg1": protocols.alg1}
    for _ in range(count):
        protocols.graph = None
        with spans.span("gc.collect"):
            gc.collect()
        meter.tick()
        with spans.span("graphs.udg_build", nodes=scale.nodes):
            started = clock()
            graph = connected_random_udg(scale.nodes, scale.side, rng=rng)
            setup.add(started)
        protocols.deploy(graph)
        for kind in CYCLE:
            with spans.span("gc.collect"):
                gc.collect()
            meter.tick()
            started = clock()
            out[kind].add(started, calls[kind]())
        after()
    return setup, out["alg2"], out["alg1"]


def _invariants(result: Result, protocols: _Protocols) -> None:
    """Exact counts, summed over the deployments."""
    inv = result.invariants
    inv["graphs.edges"] = protocols.edges
    if protocols.alg2_ref:
        inv["wcds.alg2_backbone_size"] = sum(
            len(mis) + len(additional) for mis, additional in protocols.alg2_ref.values()
        )
        for position, name in enumerate(("messages", "deliveries", "rounds")):
            inv[f"sim.alg2_{name}"] = sum(c[position] for c in protocols.alg2_counts.values())
    if protocols.alg1_ref:
        inv["wcds.alg1_backbone_size"] = sum(len(d) for d in protocols.alg1_ref.values())
        for position, name in enumerate(("messages", "rounds")):
            inv[f"sim.alg1_{name}"] = sum(c[position] for c in protocols.alg1_counts.values())


def run(seed: int, seconds: float, traced: bool, scale: Scale = FULL) -> Result:
    """One run of the workload: untraced (end-to-end metrics) or traced
    (per-layer metrics)."""
    result = Result(NAME, seed, seconds, traced)
    count = cycles(seconds, scale.cycles_per_s)
    result.scale.update({
        "nodes": scale.nodes, "side": scale.side, "cycles": count, "cycle": list(CYCLE),
    })
    if traced:
        _traced(result, seed, count, scale)
        return result
    meter = SpeedMeter()
    protocols = _Protocols(result)
    setups, alg2_s, alg1_s = _loop(seed, count, scale, protocols, protocols.alg2, meter)
    end_to_end(result, setups, alg2_s, alg1_s, meter)
    _invariants(result, protocols)
    return result


def _traced(result: Result, seed: int, count: int, scale: Scale) -> None:
    spans = result.spans = Spans(f"{NAME}-{seed}")
    span_ns = span_overhead_ns(spans)
    protocols = _Protocols(result)
    csr_s: List[float] = []
    untimed_s: List[float] = []

    def after() -> None:
        with spans.span("trace.probe_csr"):
            started = clock()
            graph_to_csr(protocols.graph)
            csr_s.append(clock() - started)
        # The timed runs must reach what algorithm2_distributed returns.
        with spans.span("check.alg2_untimed"):
            untimed_s.append(protocols.alg2())

    with spans.span("harness.run", workload=NAME, seed=seed):
        started = clock()
        with spans.span("trace.calibrate_handler_timer"):
            timer = calibrate_handler_timer()
        _, _, alg1_s = _loop(seed, count, scale, protocols,
                             lambda: protocols.alg2_timed(timer), SpeedMeter(math.inf), after)
        wall = clock() - started
    layer_metrics(result, wall, span_ns)
    splits = protocols.splits
    run_s = quantile([s["run_s"] for s in splits], 0.5)
    handler_s = quantile([s["handler_s"] for s in splits], 0.5)
    calls = quantile([s["calls"] for s in splits], 0.5)
    deliveries = quantile([s["deliveries"] for s in splits], 0.5)
    metric = result.metric
    metric("kernels.csr_share_of_alg2", ratio(sum(csr_s), sum(untimed_s)), "ratio", len(csr_s))
    first_calls: Dict[int, int] = {}
    for split in splits:
        first_calls.setdefault(split["index"], split["calls"])
    metric("wcds.alg2_handler_calls", sum(first_calls.values()), "count")
    metric("wcds.alg2_handler_share", ratio(handler_s, run_s), "ratio", len(splits))
    _invariants(result, protocols)
    for name, value in result.invariants.items():
        if name.startswith(("sim.", "wcds.")):
            metric(name, value, "count")
    phases = {p: spans.durations(f"alg1.{p}") for p in ALG1_PHASES}
    for phase, times in phases.items():
        metric(f"alg1.{phase}_share", ratio(sum(times), sum(alg1_s)), "ratio", len(times))
    result.detail.update({
        "kernels.csr_build_s": quantile(csr_s, 0.5),
        "sim.alg2_run_s": run_s,
        "sim.alg2_untimed_run_s": quantile(untimed_s, 0.5),
        "sim.alg2_delivery_self_s": run_s - handler_s,
        "sim.alg2_ns_per_delivery": ratio((run_s - handler_s) * 1e9, deliveries),
        "wcds.alg2_handler_self_s": handler_s,
        "wcds.alg2_handler_calls_p50": calls,
        "trace.handler_timer_inside_ns": timer[0],
        "trace.handler_timer_ns": timer[1],
        "alg1.run_s": quantile(alg1_s, 0.5),
        **{f"alg1.{p}_s": quantile(t, 0.5) for p, t in phases.items()},
    })
