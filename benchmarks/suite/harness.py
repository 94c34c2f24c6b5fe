"""Shared machinery of the layered benchmark.

Timing samples and their statistics, the benchmark-side span recorder
of traced runs, and the result record every workload returns.  Spans
are recorded here, around calls into the program's public functions;
the program itself carries no benchmark tracing.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import math
import os
import multiprocessing
import platform
import random
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.geometry.point import Point

clock = time.perf_counter

#: Seconds-to-unit factors of the timing units the benchmark reports.
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def cycles(seconds: float, per_second: float) -> int:
    """How many workload cycles a run of ``seconds`` makes (at least one).

    ``per_second`` is how many cycles a second held on the reference
    machine (README, "Run length").  The count depends on the run
    length and the workload only, never on how fast this machine runs:
    a run's calls, and the cache and topology states they leave, are
    then the same for one seed on every run and every commit.
    """
    return max(1, round(seconds * per_second))


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``0 <= q <= 1``) of a sample;
    0 for an empty one (a run whose operations all failed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_tail(count: int) -> Optional[float]:
    """The highest of p90/p95/p99/p99.9 that has at least ten samples
    beyond it, or ``None`` when even p90 has fewer."""
    for q in (0.999, 0.99, 0.95, 0.9):
        if count * (1.0 - q) >= 10.0 - 1e-9:
            return q
    return None


def summary(seconds: List[float], unit: str) -> Dict[str, Any]:
    """Median, supported tail and count of a timing sample, in ``unit``."""
    scale = TIME_SCALE[unit]
    out: Dict[str, Any] = {
        "samples": len(seconds),
        "median": quantile(seconds, 0.5) * scale,
        "unit": unit,
    }
    tail = supported_tail(len(seconds))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = quantile(seconds, tail) * scale
    return out


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


class Sample(list):
    """Durations of one kind of timed call, in seconds, together with
    the :func:`clock` reading at which each call started."""

    def __init__(self) -> None:
        super().__init__()
        self.starts: List[float] = []

    def add(self, started: float, seconds: Optional[float] = None) -> None:
        """Record a call that started at ``started`` and took
        ``seconds`` (by default: it ends now)."""
        self.starts.append(started)
        self.append(clock() - started if seconds is None else seconds)


#: One reference walk at the pace of a quiet machine, in seconds: the
#: 2-vCPU machine the baselines were recorded on took 0.5 to 0.6 ms in
#: its fast stretches.  Scaled times are the raw ones at this pace.
REFERENCE_WALK_S = 0.6e-3


def _walk(graph: List[List[int]]) -> int:
    """Breadth-first walk of ``graph`` from node 0: the reference loop."""
    seen = {0}
    frontier = [0]
    total = 0
    while frontier:
        reached = []
        for u in frontier:
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
                    total += v
        frontier = reached
    return total


class SpeedMeter:
    """The pace the machine runs Python at, from a fixed reference loop.

    On a shared virtual machine the same Python code runs up to twice
    as slow in some minutes as in others, so raw times of one commit
    spread far more than any bound (README, "Measuring on a shared
    machine").  Between timed calls, :meth:`tick` times a walk over a
    fixed synthetic graph, at most every ``interval`` seconds.  The walk
    owes nothing to the program, so no change to the program moves it.
    :meth:`normalise` scales each timed call by ``REFERENCE_WALK_S`` over
    the walk time measured around the call: what the call would have
    taken at the pace of a quiet machine.

    The correction is partial: code that works on more memory than the
    walk slows down less than the walk on a slow CPU.  And the walk runs
    in this process between calls, so program work left running between
    calls (a background thread, a busy worker) would slow the walk and
    hide part of its own cost; the raw times stay in each record's
    ``detail`` for that reason.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.at: List[float] = []
        self.walk_s: List[float] = []
        rng = random.Random(0)
        self._graph = [[rng.randrange(1500) for _ in range(6)] for _ in range(1500)]
        self.probe()

    def probe(self) -> None:
        """Time the reference walk now: the faster of two walks, so that
        one interruption does not count as a slow machine."""
        started = clock()
        best = math.inf
        for _ in range(2):
            t0 = clock()
            _walk(self._graph)
            best = min(best, clock() - t0)
        self.at.append(started)
        self.walk_s.append(best)

    def tick(self) -> None:
        """Probe when ``interval`` seconds have passed since the last probe."""
        if clock() - self.at[-1] >= self.interval:
            self.probe()

    def pace(self, started: float, seconds: float) -> float:
        """Median walk time of the probes within 1.5 intervals of the
        call ``[started, started + seconds]`` (of all probes if none)."""
        slack = 1.5 * self.interval
        lo = bisect.bisect_left(self.at, started - slack)
        hi = bisect.bisect_right(self.at, started + seconds + slack)
        return quantile(self.walk_s[lo:hi] or self.walk_s, 0.5)

    def normalise(self, sample: Sample) -> List[float]:
        """The sample's durations at the pace of a quiet machine."""
        return [
            seconds * REFERENCE_WALK_S / self.pace(started, seconds)
            for started, seconds in zip(sample.starts, sample)
        ]


class Spans:
    """In-memory spans of one traced run, written as JSONL at the end.

    Each span has a name ``<layer>.<what>``, a trace id shared by the
    whole run, its own id, its parent's id, start and end (seconds on
    :func:`time.perf_counter`), and attributes.  A layer's self time is
    the time its spans cover minus the time of their child spans.
    """

    enabled = True

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    def _new(self, name: str, start: float, attrs: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": next(self._ids),
            "parent_id": self._stack[-1] if self._stack else None,
            "start": start,
            "end": start,
            "attrs": attrs,
        }

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span around the ``with`` body; yields its
        attribute dict so the body can annotate it."""
        record = self._new(name, clock(), attrs)
        self._stack.append(record["span_id"])
        try:
            yield attrs
        finally:
            record["end"] = clock()
            self._stack.pop()
            self.records.append(record)

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span measured elsewhere (a phase span of the
        program's own tracer, or an aggregate of timed handler calls)
        as a child of the innermost open span."""
        record = self._new(name, start, attrs)
        record["end"] = end
        self.records.append(record)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        own = {r["span_id"]: r["end"] - r["start"] for r in self.records}
        for r in self.records:
            if r["parent_id"] is not None:
                own[r["parent_id"]] -= r["end"] - r["start"]
        return own

    def layer_self(self) -> Dict[str, float]:
        """Self time per layer (the span-name prefix before the dot)."""
        own = self.self_times()
        layers: Dict[str, float] = {}
        for r in self.records:
            layer = r["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own[r["span_id"]]
        return layers

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in recording order
        of their ends."""
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.records, key=lambda r: r["span_id"]):
                handle.write(json.dumps(record, default=str) + "\n")
        return len(self.records)


class NullSpans:
    """Stand-in recorder of untraced runs: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        yield attrs

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        pass


def span_overhead_ns(spans: Spans, calls: int = 20_000) -> float:
    """Calibrated wall cost of one empty span on ``spans``, in ns.

    The calibration spans are removed again, so they appear neither in
    the written trace nor in any layer's self time.
    """
    before = len(spans.records)
    started = clock()
    for _ in range(calls):
        with spans.span("trace.calibrate"):
            pass
    elapsed = clock() - started
    del spans.records[before:]
    return elapsed / calls * 1e9


class MoveStream:
    """Seeded node moves: a uniformly drawn node, shifted uniformly by
    up to ``reach`` radio radii along each axis from where it is now."""

    def __init__(self, graph: Any, seed: Any, reach: float) -> None:
        self.graph = graph
        self.rng = random.Random(seed)
        self.nodes = sorted(graph.positions)
        self.reach = reach * graph.radius

    def next(self) -> Tuple[Any, Any]:
        """The next ``(node, target point)``."""
        node = self.nodes[self.rng.randrange(len(self.nodes))]
        pos = self.graph.positions[node]
        return node, Point(
            pos.x + self.rng.uniform(-self.reach, self.reach),
            pos.y + self.rng.uniform(-self.reach, self.reach),
        )


def environment() -> Dict[str, Any]:
    """The facts a timing depends on besides the code."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.invariants: Dict[str, Any] = {}
        self.detail: Dict[str, Any] = {}
        #: What the run's timings depend on besides the code and the
        #: machine; ``compare`` refuses results of different scales.
        self.scale: Dict[str, Any] = {"seconds": seconds}
        self.spans: Any = NullSpans()

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}

    def timing(self, name: str, seconds: List[float], unit: str, q: float) -> None:
        """Record the ``q`` quantile of a timing sample under ``name``."""
        self.metric(name, quantile(seconds, q) * TIME_SCALE[unit], unit, len(seconds))

    def check(self, name: str, ok: bool) -> bool:
        """Record a correctness check; a name checked twice must pass
        both times."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def op(self, ok: bool, count: int = 1) -> None:
        """Count ``count`` attempted operations and whether they failed."""
        self.attempted += count
        if not ok:
            self.failed += count

    def error(self, where: str, exc: BaseException) -> None:
        """Keep the traceback of a failed operation (the first few)."""
        errors = self.detail.setdefault("errors", [])
        if len(errors) < 5:
            errors.append(f"{where}: " + "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def record(self) -> Dict[str, Any]:
        """The JSON record of the run (the ``--out`` file content)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "scale": self.scale,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": ratio(self.failed, self.attempted),
            "checks": dict(sorted(self.checks.items())),
            "metrics": dict(sorted(self.metrics.items())),
            "invariants": dict(sorted(self.invariants.items())),
            "detail": dict(sorted(self.detail.items())),
        }


#: Layers a span can belong to: the program's packages a workload calls
#: into, ``alg1`` for whole Algorithm I protocol phases (simulator and
#: handlers undivided), ``inputs`` for inputs the benchmark draws
#: between calls (query batches, move targets), ``check`` for the
#: benchmark's correctness checks, ``gc`` for the collections the
#: benchmark runs between timed calls, ``trace`` for what tracing
#: itself costs (timer overhead and the probes a traced run adds), and
#: ``harness`` for the root span's own time (bookkeeping).
LAYERS = (
    "graphs", "sim", "wcds", "alg1", "shard", "pool", "service",
    "inputs", "check", "gc", "trace", "harness",
)


def layer_metrics(result: Result, wall: float, span_ns: float) -> None:
    """The per-layer metrics every traced run reports: the self-time
    share of each layer in the traced wall time, the share the layers
    cover, and what tracing cost.

    ``trace.overhead_ratio`` estimates traced ÷ untraced wall time − 1:
    the ``trace`` layer's time (timer wrappers, calibration, probes) plus
    the calibrated cost of every span, over the rest of the wall time.
    """
    spans = result.spans
    layers = spans.layer_self()
    unknown = sorted(set(layers) - set(LAYERS))
    if unknown:
        raise ValueError(f"spans outside the known layers: {unknown}")
    for layer in LAYERS:
        result.metric(f"{layer}.self_share", ratio(layers.get(layer, 0.0), wall), "ratio")
    tracing = layers.get("trace", 0.0) + len(spans.records) * span_ns * 1e-9
    result.metric("trace.coverage", 1.0 - ratio(layers.get("harness", 0.0), wall), "ratio")
    result.metric("trace.wall_s", wall, "s")
    result.metric("trace.spans", len(spans.records), "count")
    result.metric("trace.overhead_ratio", ratio(tracing, wall - tracing), "ratio")
    result.metric("trace.span_overhead_ns", span_ns, "ns")
    udg_s = quantile(spans.durations("graphs.udg_build"), 0.5)
    result.metric("graphs.udg_build_s", udg_s, "s")


def repeat_setup(setup: Callable[[], Tuple[Any, float]],
                 meter: SpeedMeter) -> Tuple[Any, Sample]:
    """Run ``setup`` (returning ``(state, seconds)``) at least three
    times, and up to seven while the set-ups have taken under two
    seconds; returns the last state and every duration.  ``meter``
    probes before and after each set-up.

    Each set-up starts from a collected heap, as it would in a fresh
    process: otherwise the garbage of the earlier ones (reference
    cycles wait for a full collection) slows the later ones down, and
    what is left of it would be collected inside the measured loop.
    """
    times = Sample()
    state = None
    while len(times) < 3 or (len(times) < 7 and sum(times) < 2.0):
        state = None
        gc.collect()
        meter.probe()
        started = clock()
        state, seconds = setup()
        times.add(started, seconds)
    meter.probe()
    gc.collect()
    return state, times


def end_to_end(result: Result, setup: Sample, op: Sample, aux: Sample,
               meter: SpeedMeter) -> None:
    """The end-to-end metrics every untraced run reports.

    ``op`` holds the latencies of the workload's repeated operation and
    ``aux`` those of its secondary one; each workload's module says
    which calls these are.  Every time is normalised by ``meter``; the
    raw times stay in the record's ``detail``.

    The tail metric is the upper quartile; the highest percentile with
    ten samples beyond it is in ``detail``.  Whether a ``shard-churn``
    move cascades depends on the seed, and the p90 of its moves spread
    up to 0.22 across ten seeds, the upper quartile 0.05.
    """
    setup_n, op_n, aux_n = (meter.normalise(s) for s in (setup, op, aux))
    result.timing("setup_s", setup_n, "s", 0.5)
    result.timing("op_p50_ms", op_n, "ms", 0.5)
    result.timing("op_p75_ms", op_n, "ms", 0.75)
    result.metric("ops_per_s", ratio(len(op_n), sum(op_n)), "1/s", len(op_n))
    result.timing("aux_p50_ms", aux_n, "ms", 0.5)
    for name, raw, normalised in (("setup", setup, setup_n), ("op", op, op_n),
                                  ("aux", aux, aux_n)):
        unit = "s" if name == "setup" else "ms"
        result.detail[name] = summary(normalised, unit)
        result.detail[f"{name}_raw"] = summary(raw, unit)
    result.detail["op_raw_total_s"] = sum(op)
    result.detail["aux_raw_total_s"] = sum(aux)
    result.detail["reference_walk"] = summary(meter.walk_s, "ms")


def finish(result: Result, spec: Dict[str, Any]) -> None:
    """Hold the result to ``BENCHMARK.json``'s metric list.

    An untraced run must report every end-to-end metric.  A traced run
    reports every per-layer metric; a count or ratio of a layer the
    workload never calls reads 0 from 0 samples, while a missing time
    is a harness bug.
    """
    wanted = spec["per_layer"] if result.traced else spec["end_to_end"]
    for entry in wanted:
        got = result.metrics.get(entry["name"])
        if got is None:
            if not result.traced or entry["unit"] in TIME_SCALE:
                raise ValueError(f"{result.workload} did not measure {entry['name']}")
            result.metric(entry["name"], 0, entry["unit"], samples=0)
        elif got["unit"] != entry["unit"]:
            raise ValueError(
                f"{entry['name']} measured in {got['unit']}, declared {entry['unit']}"
            )
    names = {entry["name"] for entry in wanted}
    result.metrics = {k: v for k, v in result.metrics.items() if k in names}


def reap_children(timeout: float = 10.0) -> None:
    """Wait for every child process this process started; kill the
    ones that do not end within ``timeout``."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


def stop_resource_tracker() -> None:
    """Stop and wait for the helper process ``multiprocessing`` starts to
    track shared-memory segments, if it was started (it would otherwise
    exit on its own shortly after this process)."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
