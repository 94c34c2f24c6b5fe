"""Discrete-event simulator for distributed protocols on a graph.

The radio model is the paper's: a node's transmission is heard by every
current neighbor in the communication graph (local broadcast), and one
transmission counts as one message.  Delivery times come from a pluggable
latency model; with the default fixed unit latency the execution is the
synchronous round model the complexity theorems assume.

Fault injection (per-delivery loss, node crashes) goes beyond the paper
and exists to stress protocol implementations in tests.
"""

from __future__ import annotations

import heapq
import itertools
import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.obs.flightrec import flight_record
from repro.sim.config import SimConfig
from repro.sim.latency import FixedLatency
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats

NodeFactory = Callable[[NodeContext], ProtocolNode]

_DELIVER = 0
_TIMER = 1
_FAULT = 2


class _SchedulePerturbation:
    """Active schedule override installed by :func:`perturbed_schedule`."""

    def __init__(self, seed: Optional[int], recorder: Any = None) -> None:
        self.seed = seed
        self.recorder = recorder


_PERTURBATION: Optional[_SchedulePerturbation] = None


@contextmanager
def perturbed_schedule(
    seed: Optional[int], recorder: Any = None
) -> Iterator[None]:
    """Perturb tie-breaking among simultaneously-scheduled events.

    Every :class:`Simulator` constructed inside the ``with`` block draws
    a random priority (from a dedicated ``random.Random(seed)``) for
    each scheduled event; the priority orders events *with equal
    scheduled time* ahead of the FIFO sequence number.  Delivery times
    are untouched, so every perturbed execution is a legal run of the
    radio model — the race detector re-runs protocols under several
    such seeds and diffs the outcomes.

    ``seed=None`` leaves the schedule in default FIFO order (used to
    capture the baseline trace).  ``recorder``, when given, is attached
    as the simulator's event tracer unless the caller installed one.
    """
    global _PERTURBATION
    previous = _PERTURBATION
    _PERTURBATION = _SchedulePerturbation(seed, recorder)
    try:
        yield
    finally:
        _PERTURBATION = previous


def active_perturbation_seed() -> Optional[int]:
    """Seed of the enclosing :func:`perturbed_schedule`, or ``None``.

    Exposed so order-independence claims *outside* the simulator — the
    shard stitcher's frontier-exchange fixpoint — can opt into the same
    race sweeps: when a seeded perturbation is active they shuffle their
    internally-arbitrary visit orders with it.
    """
    if _PERTURBATION is None:
        return None
    return _PERTURBATION.seed


class Simulator:
    """Runs one protocol over all nodes of a communication graph."""

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        config: Optional[SimConfig] = None,
        *,
        tracer=None,
        registry=None,
    ) -> None:
        config = config if config is not None else SimConfig()
        self.config = config
        self.graph = graph
        self.tracer = tracer
        self.registry = registry
        perturbation = _PERTURBATION
        self._tie_rng: Optional[random.Random] = None
        if perturbation is not None:
            if perturbation.seed is not None:
                self._tie_rng = random.Random(perturbation.seed)
            if perturbation.recorder is not None and self.tracer is None:
                self.tracer = perturbation.recorder
        # Registry counters are batched: the hot path only bumps plain
        # dicts (sends are already tallied in ``stats.by_kind``) and
        # :meth:`run` flushes the deltas into the registry on exit.
        # Live per-event Counter.inc calls cost ~10% on a full run.
        self._deliveries_by_kind: Dict[str, int] = {}
        self._drops_by_kind: Dict[str, int] = {}
        self._flushed: Dict[Tuple[str, str], int] = {}
        self.latency = (
            config.latency if config.latency is not None else FixedLatency(1.0)
        )
        self.loss_rate = config.loss_rate
        self._rng = random.Random(config.seed)
        self.now = 0.0
        self.stats = SimStats()
        self._new_queue()
        self._seq = itertools.count()
        self._dead: set = set()
        # Crash/revive count, one of the two terms of ``epoch``.
        self._liveness = 0
        self._nbr_cache: Dict[Hashable, FrozenSet[Hashable]] = {}
        self._nbr_epoch = -1
        self._started = False
        # Fault-plan execution state: the ambient plan, the set of nodes
        # the *plan* currently holds dead (manual crash_node calls are
        # tracked independently inside ``_dead``), the effective loss
        # rate, and the currently-severed partition cuts.
        self._plan = config.fault_plan
        self._plan_dead: set = set()
        self._loss_now = config.loss_rate
        self._cuts: Tuple[Any, ...] = ()
        factory = node_factory
        if config.transport:
            from repro.transport.reliable import with_transport

            factory = with_transport(node_factory)
        self.nodes: Dict[Hashable, ProtocolNode] = {}
        for node_id in graph.nodes():
            ctx = NodeContext(self, node_id)
            self.nodes[node_id] = factory(ctx)

    # ------------------------------------------------------------------
    # Node-facing API (called through NodeContext)
    # ------------------------------------------------------------------
    def neighbor_ids(self, node_id: Hashable) -> FrozenSet[Hashable]:
        """Live neighbors of ``node_id`` (crashed nodes excluded), cached
        until the epoch moves."""
        epoch = self.epoch
        if epoch != self._nbr_epoch:
            self._nbr_epoch = epoch
            self._nbr_cache.clear()
        cached = self._nbr_cache.get(node_id)
        if cached is None:
            cached = self._nbr_cache[node_id] = frozenset(
                nbr for nbr in self.graph.adjacency(node_id) if nbr not in self._dead
            )
        return cached

    def audience_of(self, node_id: Hashable) -> Tuple[Hashable, ...]:
        """Every radio neighbor of ``node_id``, in canonical order: a raw
        set would make the delivery sequence (and hence every same-time
        tie-break) a function of the hash seed."""
        return tuple(canonical_order(self.graph.adjacency(node_id)))

    @property
    def epoch(self) -> int:
        """Crash/revive count plus ``graph.version``: both monotone, so it
        moves exactly when some live-neighbor view may have changed."""
        return self._liveness + self.graph.version

    def transmit(self, message: Message) -> None:
        """One radio transmission: fan out deliveries to the audience."""
        sender = message.sender
        if sender in self._dead:
            return
        self.stats.record_send(message, self.now)
        if self.tracer is not None:
            self.tracer.on_send(self.now, message)
        if message.dest is None:
            audience: Iterable[Hashable] = self.audience_of(sender)
        else:
            if message.dest not in self.graph.adjacency(sender):
                raise ValueError(
                    f"node {sender!r} cannot unicast to non-neighbor {message.dest!r}"
                )
            audience = (message.dest,)
        for receiver in audience:
            if receiver in self._dead:
                continue
            if self._cuts and any(p.severs(sender, receiver) for p in self._cuts):
                self.stats.partition_blocked += 1
                self._record_loss(receiver, message)
                continue
            if self._loss_now and self._rng.random() < self._loss_now:
                self._record_loss(receiver, message)
                continue
            delay = self.latency(sender, receiver)
            self._push(self.now + delay, _DELIVER, receiver, message)

    def _record_loss(self, receiver: Hashable, message: Message) -> None:
        self.stats.record_drop()
        if self.registry is not None:
            drops = self._drops_by_kind
            drops[message.kind] = drops.get(message.kind, 0) + 1
        if self.tracer is not None:
            self.tracer.on_drop(self.now, receiver, message)

    def schedule_timer(self, node_id: Hashable, delay: float, tag: str) -> None:
        """Schedule an ``on_timer`` callback for a node."""
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        self._push(self.now + delay, _TIMER, node_id, tag)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_node(self, node_id: Hashable) -> None:
        """Crash a node: it stops sending and receiving immediately."""
        self._dead.add(node_id)
        self._liveness += 1

    def revive_node(self, node_id: Hashable) -> None:
        """Bring a crashed node back (with whatever state it had)."""
        self._dead.discard(node_id)
        self._liveness += 1

    @property
    def crashed(self) -> FrozenSet[Hashable]:
        """Currently crashed nodes."""
        return frozenset(self._dead)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Fault-plan execution
    # ------------------------------------------------------------------
    def _apply_plan_state(self, time: float) -> None:
        """Move the simulator to the plan's state as of ``time``."""
        plan = self._plan
        target = set(plan.dead_at(time))
        for node_id in canonical_order(target - self._plan_dead):
            self.crash_node(node_id)
        for node_id in canonical_order(self._plan_dead - target):
            self.revive_node(node_id)
        self._plan_dead = target
        self._loss_now = plan.loss_rate_at(time, base=self.loss_rate)
        self._cuts = plan.active_partitions(time)
        self.stats.fault_transitions += 1
        if self.registry is not None:
            self.registry.counter(
                "sim_fault_transitions_total",
                "Fault-plan state changes applied by the simulator",
            ).inc()
        flight_record(
            "fault_transition",
            sim_time=time,
            dead=len(target),
            loss=self._loss_now,
            partitions=len(self._cuts),
        )
        tracer = self.tracer
        if tracer is not None and hasattr(tracer, "on_fault"):
            tracer.on_fault(
                time,
                {
                    "dead": tuple(canonical_order(target)),
                    "loss": self._loss_now,
                    "partitions": len(self._cuts),
                },
            )

    def _schedule_plan(self) -> None:
        if not self._plan:
            return
        self._apply_plan_state(0.0)
        for when in self._plan.boundary_times():
            if when > 0.0:
                self._push(when, _FAULT, None, when)

    def run(self, until: Optional[float] = None) -> SimStats:
        """Start every node and process events to quiescence.

        Stops when the event queue drains or simulated time passes
        ``until``.  Processing more than ``config.max_events`` events
        in one call raises ``RuntimeError`` (a livelock guard: a
        correct terminating protocol should have gone quiet).

        ``run`` may be called repeatedly (e.g. with increasing
        ``until`` deadlines to interleave topology changes); nodes are
        started exactly once, on the first call.
        """
        try:
            if not self._started:
                self._started = True
                # The plan's time-0 state (pre-dead nodes, initial bursts
                # or partitions) applies before any node starts.
                self._schedule_plan()
                # Canonical start order, for the same reason transmit
                # sorts its audience: on_start sends seed the event queue.
                for node_id in canonical_order(self.nodes):
                    if node_id not in self._dead:
                        self.nodes[node_id].on_start()
            return self._process_events(until, self.config.max_events)
        finally:
            # The sends' tallies, on_start's included, even when a
            # handler raised.
            self.stats.fold_sends()
            self.stats.finish_time = self.now
            if self.registry is not None:
                self._flush_registry()

    def _process_events(self, until: Optional[float], max_events: int) -> SimStats:
        processed = 0
        while self._queue:
            time, _, _, etype, target, payload = heapq.heappop(self._queue)
            if until is not None and time > until:
                # Leave the event for a later `run(until=...)` call.
                self._push_raw(time, etype, target, payload)
                self.now = until
                break
            self.now = time
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"protocol did not quiesce within {max_events} events"
                )
            if etype == _FAULT:
                self._apply_plan_state(payload)
                continue
            if target in self._dead:
                continue
            node = self.nodes[target]
            if etype == _DELIVER:
                self.stats.record_delivery()
                if self.registry is not None:
                    deliveries = self._deliveries_by_kind
                    deliveries[payload.kind] = deliveries.get(payload.kind, 0) + 1
                if self.tracer is not None:
                    self.tracer.on_deliver(self.now, target, payload)
                node.on_message(payload)
            else:
                node.on_timer(payload)
        self.stats.events_processed += processed
        return self.stats

    def collect_results(self) -> Dict[Hashable, Dict[str, Any]]:
        """Gather each node's :meth:`ProtocolNode.result`."""
        return {node_id: node.result() for node_id, node in self.nodes.items()}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_registry(self) -> None:
        """Push the per-kind tallies accumulated since the last flush
        into the registry (idempotent: only deltas are added)."""
        tallies = (
            ("sim_messages_total", self.stats.by_kind),
            ("sim_deliveries_total", self._deliveries_by_kind),
            ("sim_drops_total", self._drops_by_kind),
        )
        for name, by_kind in tallies:
            for kind, count in by_kind.items():
                delta = count - self._flushed.get((name, kind), 0)
                if delta:
                    self.registry.counter(
                        name, "Radio events by message kind", kind=kind
                    ).inc(delta)
                    self._flushed[(name, kind)] = count

    def _new_queue(self) -> None:
        """The empty event queue: one global heap.  Set once, before
        any node exists, so node constructors can schedule timers."""
        self._queue: list = []

    def _push(self, time: float, etype: int, target: Hashable, payload) -> None:
        self._push_raw(time, etype, target, payload)

    def _push_raw(self, time: float, etype: int, target: Hashable, payload) -> None:
        # The tie priority orders events with equal scheduled time: 0.0
        # (FIFO via the sequence number) normally, a random draw under
        # an active schedule perturbation (see `perturbed_schedule`).
        priority = self._tie_rng.random() if self._tie_rng is not None else 0.0
        heapq.heappush(
            self._queue, (time, priority, next(self._seq), etype, target, payload)
        )


def run_protocol(
    graph: Graph,
    node_factory: NodeFactory,
    config: Optional[SimConfig] = None,
    *,
    tracer=None,
    registry=None,
) -> Tuple[Dict[Hashable, Dict[str, Any]], SimStats]:
    """Convenience: build a simulator, run to quiescence, return
    ``(per-node results, stats)``.

    The simulator is :func:`repro.sim.batched.make_simulator`'s, so
    ``config.engine`` picks it; both engines produce bit-identical
    stats and traces.
    """
    from repro.sim.batched import make_simulator

    sim = make_simulator(graph, node_factory, config, tracer=tracer, registry=registry)
    stats = sim.run()
    return sim.collect_results(), stats
