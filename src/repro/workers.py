"""One spawn-worker substrate for the shard serve pool and the fleet runner.

:class:`~repro.shard.pool.ShardServePool` and
:class:`~repro.sim.fleet.FleetRunner` are thin clients: each supplies a
module-level *handler* for its own messages, called in the worker as
``handler(env, message) -> reply``.  Everything around it lives here
once — the shared position block (:class:`SharedPositions`), the
handler's env (:class:`WorkerEnv`: rows that are read-only under the
sanitizer), the worker loop (:func:`_worker_main`: quiet exit on EOF;
:func:`_answer`: the ``flush``/``close``/``probe`` replies), the
worker telemetry (:class:`WorkerTelemetry`), and the parent side
(:class:`WorkerGroup`: spawn, ``send``/``recv`` with one death path,
the windowed :meth:`~WorkerGroup.pump`, harvest and trace stitching,
the close handshake).  :class:`WorkerClient` gives a client the
telemetry accessors and lifecycle of its ``group``.

A reply that carries a telemetry frame takes it from
:meth:`WorkerEnv.frame`, which counts the reply *before* capturing the
frame, so the in-flight reply is in its own snapshot — that is what
makes the parent-side totals exact.  A group of ``count == 0`` spawns
nothing: it is one in-process *lane* (:class:`_Lane`) that runs the
worker loop's dispatch, so a client has one path for any worker count.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.obs.flightrec import flight_record
from repro.obs.pipeline import TelemetryFrame, TelemetryHarvest, TraceStitcher
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import TraceContext, Tracer

__all__ = [
    "Handler",
    "SharedPositions",
    "WorkerClient",
    "WorkerEnv",
    "WorkerGroup",
    "WorkerTelemetry",
]

#: Pipe errors that mean the other end is gone.
_PIPE_ERRORS = (EOFError, OSError)

#: Messages :meth:`WorkerGroup.pump` keeps in flight per worker: one
#: being served while the next waits in the pipe.
_WINDOW = 2


class SharedPositions:
    """An ``(n, 2)`` float64 position array in shared memory.

    Created by the parent and attached (by name) from workers.
    Pickles as an attach handle, so it round-trips through ``spawn``
    process boundaries: the unpickled object maps the same memory.
    """

    def __init__(self, name: Optional[str], count: int, *, _create: bool = False):
        nbytes = max(count * 16, 16)
        if _create:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            # Attachers here are always spawn children of the creator
            # (or the creating process itself, for pickle round-trips),
            # so they share the creator's resource tracker and the
            # register-on-attach in 3.11 is a no-op rather than the
            # premature-unlink hazard of python/cpython#82300.  The
            # creator's single ``unlink()`` is the one cleanup point.
            self._shm = shared_memory.SharedMemory(name=name)
        self.name = self._shm.name
        self.count = count
        self.array = np.ndarray((count, 2), dtype=np.float64, buffer=self._shm.buf)

    @classmethod
    def create(cls, coords: Sequence[Iterable[float]]) -> "SharedPositions":
        """Allocate a segment holding ``coords`` (row i = point i)."""
        shared = cls(None, len(coords), _create=True)
        for i, (x, y) in enumerate(coords):
            shared.array[i, 0] = x
            shared.array[i, 1] = y
        return shared

    @classmethod
    def attach(cls, name: str, count: int) -> "SharedPositions":
        """Map an existing segment by name."""
        return cls(name, count)

    def __reduce__(self) -> Tuple[Any, Tuple[str, int]]:
        return (SharedPositions.attach, (self.name, self.count))

    def close(self) -> None:
        """Unmap the segment (the array becomes invalid)."""
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only, after all closes)."""
        self._shm.unlink()


class WorkerTelemetry:
    """A worker's private registry, tracer, and frame counter.

    Lives only when the parent enabled telemetry; :meth:`frame`
    snapshots the cumulative metric state plus the spans finished since
    the last frame (metrics are cumulative so a lost frame is harmless,
    spans are incremental so the stitcher never sees duplicates).
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.registry = MetricsRegistry()
        self.spans = Tracer(label)
        self.seq = 0
        self.batches = self.registry.counter(
            "worker_batches_total", "batches served"
        )
        self.replies = self.registry.counter(
            "worker_replies_total", "pipe replies sent"
        )

    def frame(self) -> TelemetryFrame:
        """Count the reply this frame rides on, then capture the frame."""
        self.replies.inc()
        self.seq += 1
        return TelemetryFrame.capture(
            self.label, self.seq, self.registry, spans=self.spans.drain()
        )


class WorkerEnv:
    """What a client handler sees in its worker process (or the lane)."""

    __slots__ = ("array", "args", "state", "tel")

    def __init__(
        self,
        array: Any,
        args: Tuple[Any, ...],
        tel: Optional[WorkerTelemetry],
    ) -> None:
        from repro.check.sanitize import sanitizer_enabled

        #: A view of the ``(n, 2)`` float64 position rows.  The parent
        #: owns churn: under the sanitizer (whose flag spawn children
        #: inherit) a handler's store raises ``ValueError``.
        self.array = array.view()
        if sanitizer_enabled():
            self.array.flags.writeable = False
        #: The client's start arguments, as passed to the group.
        self.args = args
        #: Per-worker state the handler keeps between messages.
        self.state: Dict[Any, Any] = {}
        self.tel = tel

    def frame(self) -> Optional[TelemetryFrame]:
        """The frame for the reply about to be sent (``None`` without
        telemetry)."""
        return None if self.tel is None else self.tel.frame()


#: A client's worker-side handler: ``handler(env, message) -> reply``.
#: Must be module-level so ``spawn`` can pickle it by reference.
Handler = Callable[[WorkerEnv, Tuple[Any, ...]], Tuple[Any, ...]]


def _answer(
    env: WorkerEnv, handler: Handler, message: Tuple[Any, ...]
) -> Tuple[Any, ...]:
    """The worker loop's reply to one message: the substrate's own
    ``flush``/``close``/``probe`` replies, the handler's otherwise."""
    kind = message[0]
    if kind == "flush":
        return ("frame", env.frame())
    if kind == "close":
        return ("bye", env.frame())
    if kind == "probe":
        # Sanitizer probe: attempt the forbidden write so tests and CI
        # can prove the handler's rows are write-protected.
        error = None
        try:
            env.array[0, 0] = env.array[0, 0]  # repro: noqa[S2]
        except (ValueError, TypeError) as exc:
            error = type(exc).__name__
        return ("probed", error)
    return handler(env, message)


def _worker_main(
    conn: Any,
    shared: SharedPositions,
    handler: Handler,
    args: Tuple[Any, ...],
    label: str,
    telemetry: bool,
) -> None:
    """Worker loop: answer every message until ``close``.

    Module-level so the ``spawn`` start method can import it; all state
    arrives through the pipe or the shared position array.
    """
    env = WorkerEnv(shared.array, args, WorkerTelemetry(label) if telemetry else None)
    try:
        while True:
            try:
                message = conn.recv()
            except _PIPE_ERRORS:
                # Parent vanished (crash test, hard teardown): exit
                # quietly instead of spraying a traceback from spawn.
                return
            conn.send(_answer(env, handler, message))
            if message[0] == "close":
                return
    finally:
        # Drop the handler's view (a rebind, no write into the rows):
        # the segment cannot unmap while an array views it.
        env.array = None  # repro: noqa[S2]
        shared.close()
        conn.close()


class _Lane:
    """The worker of a ``count == 0`` group, in-process behind a pipe
    end's interface: :meth:`send` answers at once, :meth:`recv` hands
    the answers back in order."""

    def __init__(self, env: WorkerEnv, handler: Handler) -> None:
        self.env = env
        self.handler = handler
        self.replies: Deque[Tuple[Any, ...]] = deque()

    def send(self, message: Tuple[Any, ...]) -> None:
        try:
            self.replies.append(_answer(self.env, self.handler, message))
        except BaseException:
            # The handler's error ends the call; answers still queued
            # for it must not be read as the next call's.
            self.replies.clear()
            raise

    def recv(self) -> Tuple[Any, ...]:
        return self.replies.popleft()

    def close(self) -> None:
        self.replies.clear()


class WorkerGroup:
    """The parent side of N labelled spawn workers, or of one lane.

    ``rows`` are the position rows to publish as one
    :class:`SharedPositions` block (row ``i`` is the client's node
    ``i``); ``args`` are the client's start arguments, shipped once per
    worker.  With a ``registry`` the workers keep private telemetry and
    the group absorbs their frames into one :class:`TelemetryHarvest`,
    whose registry is the fleet view (fleet totals plus ``worker=``
    children), and one :class:`TraceStitcher`, fed by the parent's
    ``Tracer("parent")`` and each worker's ``Tracer(label)``.  With
    ``count == 0`` the one lane, labelled ``{prefix}0``, reads a
    process-local copy of ``rows``.  Either way the client writes churn
    into :attr:`array`.

    A worker that stops answering is a *death*: the group counts it in
    ``deaths_metric``, flight-records it (which dumps the recorder when
    armed) and raises ``RuntimeError(died.format(label))``.  From then
    on every ``send``/``recv`` raises that error again until
    :meth:`close` — the survivors may hold replies to a call that never
    finished, and reading them as answers to the next call would be
    wrong.
    """

    def __init__(
        self,
        *,
        handler: Handler,
        count: int,
        prefix: str,
        rows: Sequence[Iterable[float]] = (),
        args: Tuple[Any, ...] = (),
        registry: Optional[MetricsRegistry] = None,
        died: str,
        deaths_metric: str,
    ) -> None:
        if count < 0:
            raise ValueError(f"worker count must be >= 0, got {count}")
        self.registry = registry
        self.telemetry = registry is not None
        self.spans: Optional[Tracer] = None
        self.harvest: Optional[TelemetryHarvest] = None
        self.stitcher: Optional[TraceStitcher] = None
        if registry is not None:
            self.spans = Tracer("parent")
            self.harvest = TelemetryHarvest(registry)
            self.stitcher = TraceStitcher()
        self.died = died
        self.deaths_metric = deaths_metric
        self.labels = [f"{prefix}{i}" for i in range(max(count, 1))]
        self.processes: List[Any] = []
        self.conns: List[Any] = []
        self.shared: Optional[SharedPositions] = None
        #: The ``(n, 2)`` position rows, writable by the client only.
        self.array: Any = None
        self._death: Optional[RuntimeError] = None
        if count == 0:
            self.array = np.array([tuple(r) for r in rows], np.float64).reshape(-1, 2)
            tel = WorkerTelemetry(self.labels[0]) if self.telemetry else None
            self.conns.append(_Lane(WorkerEnv(self.array, args, tel), handler))
            return
        try:
            ctx = multiprocessing.get_context("spawn")
            self.shared = SharedPositions.create(rows)
            self.array = self.shared.array
            for label in self.labels:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn, self.shared, handler, args, label, self.telemetry
                    ),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child_conn.close()
                self.processes.append(process)
                self.conns.append(parent_conn)
        except BaseException:
            # Stop what did start and unlink the segment.
            self.close()
            raise

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _died(self, worker_id: int, error: BaseException) -> NoReturn:
        label = self.labels[worker_id]
        if self.registry is not None:
            self.registry.counter(
                self.deaths_metric, "workers that stopped answering"
            ).inc()
        flight_record("worker_death", worker=label, error=type(error).__name__)
        self._death = RuntimeError(self.died.format(label))
        raise self._death from error

    def _check_alive(self) -> None:
        if self._death is not None:
            raise RuntimeError(*self._death.args) from self._death.__cause__

    def send(self, worker_id: int, message: Tuple[Any, ...]) -> None:
        """Send one message to a worker."""
        self._check_alive()
        try:
            self.conns[worker_id].send(message)
        except _PIPE_ERRORS as exc:
            self._died(worker_id, exc)

    def recv(self, worker_id: int, expect: str) -> Tuple[Any, ...]:
        """Receive a worker's next reply, which must be of kind ``expect``."""
        self._check_alive()
        try:
            reply = self.conns[worker_id].recv()
        except _PIPE_ERRORS as exc:
            self._died(worker_id, exc)
        if reply[0] != expect:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected worker reply {reply!r}")
        return reply

    def request(
        self, worker_id: int, message: Tuple[Any, ...], expect: str
    ) -> Tuple[Any, ...]:
        """One round trip: send ``message``, return the ``expect`` reply."""
        self.send(worker_id, message)
        return self.recv(worker_id, expect)

    def pump(
        self,
        queues: Mapping[int, Deque[Tuple[Any, ...]]],
        expect: str,
        on_reply: Optional[Callable[[Tuple[Any, ...]], None]] = None,
    ) -> None:
        """Send every queued message to its worker and hand each
        ``expect`` reply to ``on_reply`` (if any), in each worker's send
        order.

        Up to :data:`_WINDOW` messages stay in flight on every worker
        at once, so the workers compute concurrently instead of one
        after the other.  The window bounds the pipe backlog: a parent
        blocked on a full request pipe while its worker blocks on a
        full reply pipe would deadlock.
        """
        in_flight = dict.fromkeys(queues, 0)
        order = sorted(queues)
        while any(queues.values()) or any(in_flight.values()):
            for worker_id in order:
                queue = queues[worker_id]
                while queue and in_flight[worker_id] < _WINDOW:
                    self.send(worker_id, queue.popleft())
                    in_flight[worker_id] += 1
            for worker_id in order:
                if in_flight[worker_id]:
                    reply = self.recv(worker_id, expect)
                    in_flight[worker_id] -= 1
                    if on_reply is not None:
                        on_reply(reply)

    def probe(self) -> Optional[str]:
        """Ask worker 0 to attempt a shared-array write (sanitizer probe).

        Returns the exception name the write raised in the worker, or
        ``None`` when the write went through — the expected answer
        outside the sanitizer.
        """
        return self.request(0, ("probe",), "probed")[1]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[TraceContext]]:
        """A parent-side span around one dispatch.  Yields the context to
        ship with its messages (``None`` without telemetry) and stitches
        the parent's spans once the block ends."""
        if self.spans is None:
            yield None
            return
        with self.spans.span(name, **attrs) as span:
            yield span.context
        self._stitch_parent()

    def _stitch_parent(self) -> None:
        if self.spans is not None and self.stitcher is not None:
            self.stitcher.add(self.spans.drain())

    def absorb(self, frame: Optional[TelemetryFrame]) -> None:
        """Fold one worker frame into the parent-side pipeline."""
        if frame is None or self.harvest is None or self.stitcher is None:
            return
        self.harvest.absorb(frame)
        if frame.spans:
            self.stitcher.add(frame.spans)

    def flush(self) -> None:
        """Pull a fresh frame from every worker (exact totals without
        waiting for the next reply)."""
        if not self.telemetry:
            return
        for worker_id in range(len(self.conns)):
            self.absorb(self.request(worker_id, ("flush",), "frame")[1])
        self._stitch_parent()

    def export_trace(self, path: str) -> int:
        """Write the stitched trace as JSONL, replacing ``path``;
        returns the span count."""
        if self.stitcher is None:
            return 0
        self._stitch_parent()
        return self.stitcher.to_jsonl(path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (absorbing their final frames) and release
        the shared segment.  Idempotent.

        Each worker is asked to close and its replies are read up to the
        ``bye``: after a death a survivor may still owe replies to the
        call that failed, and those are skipped, not absorbed.  A worker
        whose pipe is gone is just reaped.
        """
        for conn in self.conns:
            try:
                conn.send(("close",))
                reply = conn.recv()
                while reply[0] != "bye":
                    reply = conn.recv()
                self.absorb(reply[1])
            except _PIPE_ERRORS:
                pass
            conn.close()
        for process in self.processes:
            process.join(timeout=10)
        self.processes = []
        self.conns = []
        self._death = None
        self._stitch_parent()
        self.array = None
        if self.shared is not None:
            self.shared.close()
            self.shared.unlink()
            self.shared = None


_Client = TypeVar("_Client", bound="WorkerClient")


class WorkerClient:
    """Telemetry accessors and the lifecycle of a client that owns a
    :class:`WorkerGroup` as ``group``."""

    group: WorkerGroup

    @property
    def telemetry(self) -> bool:
        return self.group.telemetry

    @property
    def spans(self) -> Optional[Tracer]:
        return self.group.spans

    @property
    def harvest(self) -> Optional[TelemetryHarvest]:
        return self.group.harvest

    @property
    def stitcher(self) -> Optional[TraceStitcher]:
        return self.group.stitcher

    def export_trace(self, path: str) -> int:
        """Write the stitched trace as JSONL, replacing ``path``;
        returns the span count."""
        return self.group.export_trace(path)

    def close(self) -> None:
        """Stop the workers and release the shared segment."""
        self.group.close()

    def __enter__(self: _Client) -> _Client:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
