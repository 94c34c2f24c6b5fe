"""Batched twin of the event-driven simulator.

:class:`BatchedSimulator` executes exactly the runs the reference
:class:`~repro.sim.engine.Simulator` does — same protocols, same fault
plans, same transport retransmits, same ``perturbed_schedule`` tie
breaks — but restructures the hot loop around local broadcast:

* **Audience tables from CSR.**  At construction the whole adjacency is
  expanded once through :func:`repro.kernels.bfs.graph_to_csr` and
  lex-sorted into per-sender canonical audience tuples, replacing the
  oracle's per-transmit ``canonical_order(adjacency)`` sort.  A
  :attr:`Graph.version <repro.graphs.graph.Graph.version>` check keeps
  the tables honest under mobility.
* **Struct-of-arrays event queue.**  Instead of one global heap of
  ``(time, priority, seq, etype, target, payload)`` tuples, events live
  in per-time buckets: a heap of distinct times plus, per time, a flat
  record list in sequence order (or a ``(priority, seq)`` heap when a
  schedule perturbation is active).  A same-tick broadcast is one
  *fan-out record* carrying the whole audience tuple, not ``deg``
  heap entries.
* **Bulk counter updates.**  Deliveries and per-kind registry tallies
  for a fan-out are added in one arithmetic step
  (:meth:`SimStats.record_delivery_batch`), not ``deg`` increments.

Exactness contract: for any run that completes (normally, by ``until``
deadline, or by the ``max_events`` livelock guard), the batched engine
produces bit-identical :class:`~repro.sim.stats.SimStats`, traces,
per-node results, and RNG streams to the oracle.  The only tolerated
divergence is registry per-kind delivery counters after an exception
*thrown by a protocol handler* mid-fan-out (the batch was tallied
up-front); ``SimStats`` stays exact even then.  When a tracer is
attached, a non-unit latency model is used, or a schedule perturbation
is active, the engine transparently falls back to oracle-identical
per-receiver scheduling, so observable per-event order is preserved by
construction.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.kernels._compat import HAVE_NUMPY, require_numpy
from repro.sim.config import SimConfig
from repro.sim.engine import _DELIVER, _FAULT, NodeFactory, Simulator
from repro.sim.latency import FixedLatency
from repro.sim.messages import Message
from repro.sim.stats import SimStats

__all__ = [
    "AUTO_THRESHOLD",
    "BatchedSimulator",
    "ENGINES",
    "make_simulator",
    "resolve_engine",
]

#: Record tag for a batched local-broadcast fan-out: one record whose
#: target is the whole (already loss-filtered) audience tuple.  Distinct
#: from the oracle's event types, which the batched queue also carries.
_FANOUT = 3

ENGINES: Tuple[str, ...] = ("event", "batched", "auto")

#: Below this node count the bucket queue's bookkeeping rivals the heap
#: it replaces; same crossover the kernels use in ``resolve_method``.
AUTO_THRESHOLD = 64

#: Audience tables memoized per live graph, keyed by mutation version.
#: Fleet sweeps and benchmarks run thousands of simulators over one
#: topology; the CSR expansion is identical every time, so share it.
#: Entries die with their graph (weak keys) and a version mismatch
#: forces a rebuild, so stale adjacency can never leak into a run.
_AUDIENCE_CACHE: "weakref.WeakKeyDictionary[Graph, Tuple[int, Dict[Hashable, Tuple[Hashable, ...]]]]" = (
    weakref.WeakKeyDictionary()
)


def resolve_engine(engine: str, *, size: int, threshold: int = AUTO_THRESHOLD) -> str:
    """Resolve an engine request to ``"event"`` or ``"batched"``.

    Mirrors :func:`repro.kernels.resolve_method`: explicit choices pass
    through, ``"auto"`` picks ``"batched"`` iff numpy is importable and
    ``size >= threshold``.
    """
    if engine in ("event", "batched"):
        return engine
    if engine != "auto":
        raise ValueError(
            f"unknown engine {engine!r} (expected 'event', 'batched', or 'auto')"
        )
    if HAVE_NUMPY and size >= threshold:
        return "batched"
    return "event"


def make_simulator(
    graph: Graph,
    node_factory: NodeFactory,
    config: Optional[SimConfig] = None,
    *,
    tracer: Any = None,
    registry: Any = None,
) -> Simulator:
    """Build the simulator ``config.engine`` selects.

    This is the single construction point every protocol entry point
    (``run_protocol``, ``run_mis``, the backbone registry, chaos,
    mobility) routes through, so ``SimConfig(engine=...)`` — and the
    CLI's ``--engine`` — select the core end-to-end.
    """
    config = config if config is not None else SimConfig()
    choice = resolve_engine(config.engine, size=graph.num_nodes)
    if choice == "batched":
        return BatchedSimulator(
            graph, node_factory, config, tracer=tracer, registry=registry
        )
    return Simulator(graph, node_factory, config, tracer=tracer, registry=registry)


class BatchedSimulator(Simulator):
    """Bucket-queue simulator, bit-identical to the event oracle.

    See the module docstring for the data layout and the exactness
    contract.  Requires numpy (construction raises
    :class:`~repro.kernels.KernelUnavailableError` otherwise).
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        config: Optional[SimConfig] = None,
        *,
        tracer: Any = None,
        registry: Any = None,
    ) -> None:
        # Queue and cache structures must exist before super().__init__:
        # node constructors may query neighbors, and they or the fault
        # plan may schedule events through the overridden _push_raw
        # during base-class setup.
        self._buckets: Dict[float, List[Tuple[Any, ...]]] = {}
        self._times: List[float] = []
        self._audience: Dict[Hashable, Tuple[Hashable, ...]] = {}
        self._graph_version = graph.version
        # The bulk CSR expansion is deferred to the first broadcast:
        # construction stays cheap for runs that never fan out (or get
        # stepped a few events at a time), and mutation-heavy runs fall
        # back to per-sender refills instead of re-expanding everything.
        self._audience_bulk_pending = True
        super().__init__(graph, node_factory, config, tracer=tracer, registry=registry)
        latency = self.latency
        # Exact type check: a FixedLatency subclass could override
        # __call__ with stateful behavior, which the fan-out fast path
        # would skip.
        self._fixed_delay: Optional[float] = (
            latency.delay if type(latency) is FixedLatency else None
        )

    # ------------------------------------------------------------------
    # Audience tables
    # ------------------------------------------------------------------
    def _build_audiences_for(self, graph: Graph) -> None:
        """Expand the whole adjacency into canonical audience tuples.

        One CSR pass replaces a per-transmit ``canonical_order`` over
        the neighbor set: :func:`~repro.kernels.bfs.graph_to_csr`
        returns the edge arrays sorted by ``(head, tail)`` with node
        indices in canonical order, so each head segment's tail run
        *is* that sender's canonical audience.  The expanded table is
        memoized per ``(graph, version)`` so simulators sweeping seeds
        over one topology pay for the expansion once.
        """
        version = graph.version
        cached = _AUDIENCE_CACHE.get(graph)
        if cached is not None and cached[0] == version:
            table = cached[1]
        else:
            table = self._expand_audiences(graph)
            _AUDIENCE_CACHE[graph] = (version, table)
        # Per-sender refills already present (post-mutation) take
        # precedence over the memoized table.
        merged = dict(table)
        merged.update(self._audience)
        self._audience = merged

    @staticmethod
    def _expand_audiences(graph: Graph) -> Dict[Hashable, Tuple[Hashable, ...]]:
        from repro.kernels.bfs import graph_to_csr

        np = require_numpy()
        node_list, heads, tails = graph_to_csr(graph)
        if len(heads) == 0:
            return {node: () for node in node_list}
        indices = np.arange(len(node_list))
        starts = np.searchsorted(heads, indices, side="left")
        ends = np.searchsorted(heads, indices, side="right")
        tail_nodes = [node_list[j] for j in tails.tolist()]
        return {
            node: tuple(tail_nodes[starts[i] : ends[i]])
            for i, node in enumerate(node_list)
        }

    def audience_of(self, sender: Hashable) -> Tuple[Hashable, ...]:
        """Canonical audience of ``sender`` from the memoized table."""
        if self.graph.version != self._graph_version:
            self._graph_version = self.graph.version
            self._audience.clear()
        audience = self._audience.get(sender)
        if audience is None:
            if self._audience_bulk_pending:
                self._audience_bulk_pending = False
                self._build_audiences_for(self.graph)
                audience = self._audience.get(sender)
                if audience is not None:
                    return audience
            # Post-mutation lazy refill; adjacency raises KeyError for
            # unknown senders exactly like the oracle's sort would.
            audience = tuple(canonical_order(self.graph.adjacency(sender)))
            self._audience[sender] = audience
        return audience

    # ------------------------------------------------------------------
    # Node-facing API
    # ------------------------------------------------------------------
    def transmit(self, message: Message) -> None:
        """One radio transmission, batched into a fan-out record.

        The send-side bookkeeping, audience order, and every RNG draw
        (loss, latency, tie priority) happen in exactly the oracle's
        order; only the *scheduling* of the surviving deliveries is
        collapsed into one record when the latency is fixed and no
        perturbation is active.
        """
        sender = message.sender
        if sender in self._dead:
            return
        self.stats.record_message(message, self.now)
        if self.tracer is not None:
            self.tracer.on_send(self.now, message)
        audience: Tuple[Hashable, ...]
        if message.dest is None:
            audience = self.audience_of(sender)
        else:
            if message.dest not in self.graph.adjacency(sender):
                raise ValueError(
                    f"node {sender!r} cannot unicast to non-neighbor {message.dest!r}"
                )
            audience = (message.dest,)
        delay = self._fixed_delay
        if delay is None or self._tie_rng is not None:
            # Oracle-identical path: per-receiver latency draws and tie
            # priorities must interleave with the loss draws in the
            # exact per-receiver order the oracle uses.
            for receiver in audience:
                if receiver in self._dead:
                    continue
                if self._cuts and any(
                    p.severs(sender, receiver) for p in self._cuts
                ):
                    self.stats.partition_blocked += 1
                    self._record_loss(receiver, message)
                    continue
                if self._loss_now and self._rng.random() < self._loss_now:
                    self._record_loss(receiver, message)
                    continue
                self._push(
                    self.now + self.latency(sender, receiver), _DELIVER, receiver, message
                )
            return
        if self._dead or self._cuts or self._loss_now:
            survivors: List[Hashable] = []
            for receiver in audience:
                if receiver in self._dead:
                    continue
                if self._cuts and any(
                    p.severs(sender, receiver) for p in self._cuts
                ):
                    self.stats.partition_blocked += 1
                    self._record_loss(receiver, message)
                    continue
                if self._loss_now and self._rng.random() < self._loss_now:
                    self._record_loss(receiver, message)
                    continue
                survivors.append(receiver)
            if not survivors:
                return
            audience = tuple(survivors)
        elif not audience:
            return
        self._push_raw(self.now + delay, _FANOUT, audience, message)

    # ------------------------------------------------------------------
    # Bucket queue
    # ------------------------------------------------------------------
    def _push_raw(self, time: float, etype: int, target: Hashable, payload: Any) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heapq.heappush(self._times, time)
        if self._tie_rng is not None:
            # Perturbation: within a time bucket events order by
            # (priority, seq), matching the oracle's global heap key.
            heapq.heappush(
                bucket,
                (self._tie_rng.random(), next(self._seq), etype, target, payload),
            )
        else:
            # FIFO: list append order *is* global sequence order within
            # the bucket (each push draws the next seq implicitly).
            bucket.append((etype, target, payload))

    def _defer_head(self, time: float) -> None:
        """Replicate the oracle's ``until`` overshoot behavior.

        The oracle pops the earliest overshooting event and re-pushes it
        with a *fresh* sequence number (and fresh tie priority), which
        moves it behind its same-time peers for the next ``run`` call.
        """
        bucket = self._buckets[time]
        if self._tie_rng is not None:
            _, _, etype, target, payload = heapq.heappop(bucket)
            heapq.heappush(
                bucket,
                (self._tie_rng.random(), next(self._seq), etype, target, payload),
            )
            return
        record = bucket.pop(0)
        if record[0] != _FANOUT:
            bucket.append(record)
            return
        # The head *event* is the fan-out's first receiver: split it off
        # to the back, keep the rest at the front.
        receivers = record[1]
        if len(receivers) > 1:
            bucket.insert(0, (_FANOUT, receivers[1:], record[2]))
        bucket.append((_DELIVER, receivers[0], record[2]))

    def _process_events(self, until: Optional[float], max_events: int) -> SimStats:
        processed = 0
        delivered = 0
        buckets = self._buckets
        times = self._times
        dead = self._dead
        tracer = self.tracer
        registry = self.registry
        deliveries_by_kind = self._deliveries_by_kind
        tie = self._tie_rng
        # Bind handlers once per run: the sanitizer wraps on_message as
        # an instance attribute at construction, so lookups here see it.
        handlers = {nid: node.on_message for nid, node in self.nodes.items()}
        timers = {nid: node.on_timer for nid, node in self.nodes.items()}
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._defer_head(time)
                    self.now = until
                    break
                self.now = time
                # The bucket stays registered while draining: handlers
                # may schedule more work at this same time, which must
                # land behind (FIFO) or be merge-ordered into (tie
                # mode) the current bucket.
                bucket = buckets[time]
                index = 0
                while True:
                    if tie is not None:
                        if not bucket:
                            break
                        _, _, etype, target, payload = heapq.heappop(bucket)
                    else:
                        if index >= len(bucket):
                            break
                        etype, target, payload = bucket[index]
                        index += 1
                    if etype == _FANOUT:
                        count = len(target)
                        if (
                            tracer is None
                            and not dead
                            and processed + count <= max_events
                        ):
                            processed += count
                            if registry is not None:
                                kind = payload.kind
                                deliveries_by_kind[kind] = (
                                    deliveries_by_kind.get(kind, 0) + count
                                )
                            for receiver in target:
                                delivered += 1
                                handlers[receiver](payload)
                        else:
                            for receiver in target:
                                processed += 1
                                if processed > max_events:
                                    raise RuntimeError(
                                        "protocol did not quiesce within "
                                        f"{max_events} events"
                                    )
                                if receiver in dead:
                                    continue
                                delivered += 1
                                if registry is not None:
                                    kind = payload.kind
                                    deliveries_by_kind[kind] = (
                                        deliveries_by_kind.get(kind, 0) + 1
                                    )
                                if tracer is not None:
                                    tracer.on_deliver(self.now, receiver, payload)
                                handlers[receiver](payload)
                        continue
                    processed += 1
                    if processed > max_events:
                        raise RuntimeError(
                            f"protocol did not quiesce within {max_events} events"
                        )
                    if etype == _FAULT:
                        self._apply_plan_state(payload)
                        continue
                    if target in dead:
                        continue
                    if etype == _DELIVER:
                        delivered += 1
                        if registry is not None:
                            kind = payload.kind
                            deliveries_by_kind[kind] = (
                                deliveries_by_kind.get(kind, 0) + 1
                            )
                        if tracer is not None:
                            tracer.on_deliver(self.now, target, payload)
                        handlers[target](payload)
                    else:
                        timers[target](payload)
                del buckets[time]
                heapq.heappop(times)
        finally:
            # The oracle tallies each delivery before its handler runs,
            # so deliveries made before a livelock guard (or a handler
            # exception) must land even on the raising path.
            self.stats.record_delivery_batch(delivered)
        self.stats.events_processed += processed
        return self.stats
