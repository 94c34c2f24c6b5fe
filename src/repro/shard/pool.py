"""Serving the stitched backbone: tile replicas and a worker pool.

The parent process is the *control plane*: it owns the graph, the
:class:`~repro.shard.stitch.ShardedBackbone`, and the stitching.  The
*data plane* is a set of :class:`_TileReplica` objects — one per tile,
each holding only its tile's members, induced adjacency, and backbone
membership — that answer the read queries (``dominator``, ``member``,
``route``) without ever touching global state.

With ``config.workers == 0`` the replicas live in-process: same code
path, no multiprocessing, fully deterministic — the mode tests use.
With ``workers > 0`` the replicas are spread round-robin over worker
processes (``spawn`` context).  Node positions live in one
shared-memory float64 array (:class:`SharedPositions`): a worker
rebuilds a tile's adjacency by reading member rows straight from
shared memory, so a refresh message carries only node indices and
membership bits — O(tile), never O(n) — and a position update is one
row write by the parent, not a broadcast.

Churn (:meth:`ShardServePool.move`) re-stitches the affected tiles via
the backbone's boundary-only invalidation, then refreshes exactly the
replicas whose view changed: the re-stitched tiles plus any tile
reading a node whose backbone membership flipped.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from multiprocessing import shared_memory
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.kernels._compat import require_numpy
from repro.obs.flightrec import flight_record, get_flight_recorder
from repro.obs.pipeline import (
    SpanRecorder,
    TelemetryFrame,
    TelemetryHarvest,
    TraceContext,
    TraceStitcher,
)
from repro.obs.tracing import get_tracer
from repro.shard.config import ShardConfig
from repro.shard.stitch import InvalidationReport, ShardedBackbone
from repro.shard.tiler import TileId

Node = Hashable
#: A read query: ``("dominator", u)``, ``("member", u)``, or
#: ``("route", u, v)``.
Query = Tuple[Any, ...]


class SharedPositions:
    """An ``(n, 2)`` float64 position array in shared memory.

    Created by the pool parent and attached (by name) from workers.
    Pickles as an attach handle, so it round-trips through ``spawn``
    process boundaries: the unpickled object maps the same memory.
    """

    def __init__(self, name: Optional[str], count: int, *, _create: bool = False):
        np = require_numpy()
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
    def create(cls, coords: Sequence[Tuple[float, float]]) -> "SharedPositions":
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

    def __reduce__(self):
        return (SharedPositions.attach, (self.name, self.count))

    def protect(self) -> None:
        """Flip this process's view of the array to read-only.

        The sanitizer harness calls this in workers: the shared block
        is contractually read-only there (the parent owns churn), and a
        protected view turns any violating store into an immediate
        ``ValueError`` at the write site.  Per-process — the parent's
        own mapping stays writable.
        """
        if self.array is not None:
            self.array.flags.writeable = False

    def close(self) -> None:
        """Unmap the segment (the array becomes invalid)."""
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only, after all closes)."""
        self._shm.unlink()


class _TileReplica:
    """One tile's serveable state: members, adjacency, membership bits.

    Identifier-agnostic — the inline pool builds replicas over node
    ids, workers over shared-array row indices; the query logic is the
    same.
    """

    def __init__(
        self,
        members: Iterable[Node],
        adjacency: Dict[Node, Set[Node]],
        mis: Iterable[Node],
        backbone: Iterable[Node],
    ) -> None:
        self.members = set(members)
        self.adjacency = adjacency
        self.mis = set(mis)
        self.backbone = set(backbone)

    def dominator(self, u: Node) -> Optional[Node]:
        """The node's dominator: itself if in the MIS, else its lowest
        MIS neighbor (every node is dominated — Algorithm II's MIS)."""
        if u not in self.members:
            return None
        if u in self.mis:
            return u
        candidates = [v for v in self.adjacency.get(u, ()) if v in self.mis]
        return min(candidates) if candidates else None

    def member(self, u: Node) -> bool:
        """Whether the node is a backbone (WCDS) member."""
        return u in self.backbone

    def route(self, u: Node, v: Node) -> Optional[List[Node]]:
        """Minimum-hop path from ``u`` to ``v`` over *black edges*
        (edges with a backbone endpoint) within the tile, or ``None``
        when either endpoint is outside the tile or unreachable."""
        if u not in self.members or v not in self.members:
            return None
        if u == v:
            return [u]
        parents: Dict[Node, Node] = {}
        seen = {u}
        frontier = deque([u])
        while frontier:
            node = frontier.popleft()
            node_black = node in self.backbone
            for nbr in canonical_order(self.adjacency.get(node, ())):
                if nbr in seen:
                    continue
                if not node_black and nbr not in self.backbone:
                    continue
                parents[nbr] = node
                if nbr == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                seen.add(nbr)
                frontier.append(nbr)
        return None

    def serve(self, op: str, args: Tuple[Any, ...]) -> Any:
        if op == "dominator":
            return self.dominator(args[0])
        if op == "member":
            return self.member(args[0])
        if op == "route":
            return self.route(args[0], args[1])
        raise ValueError(f"unknown query op {op!r}")


def _replica_from_shared(
    shared: SharedPositions,
    radius: float,
    members: Sequence[int],
    mis: Sequence[int],
    backbone: Sequence[int],
) -> _TileReplica:
    """Build a replica in-worker: adjacency recomputed from the shared
    position rows (only indices crossed the pipe)."""
    from repro.kernels.udg import vector_adjacency

    rows = shared.array
    pairs = [(i, (float(rows[i, 0]), float(rows[i, 1]))) for i in members]
    adjacency = vector_adjacency(pairs, radius)
    return _TileReplica(members, adjacency, mis, backbone)


class _WorkerTelemetry:
    """A worker's private registry, span recorder, and frame counter.

    Lives only when the parent enabled telemetry; ``frame()`` snapshots
    the cumulative metric state plus the spans finished since the last
    frame (metrics are cumulative so a lost frame is harmless, spans
    are incremental so the stitcher never sees duplicates).
    """

    def __init__(self, label: str) -> None:
        from repro.obs.registry import MetricsRegistry

        self.label = label
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(label)
        self.seq = 0
        # Registry child lookups build sorted label keys; at one inc per
        # served query that dominates the telemetry overhead, so the
        # per-op children are cached here and incremented directly.
        self._serves: Dict[str, Any] = {}
        self.batches = self.registry.counter(
            "worker_batches_total", "query batches served"
        )
        self.replies = self.registry.counter(
            "worker_replies_total", "pipe replies sent"
        )

    def count_serve(self, op: str) -> None:
        counter = self._serves.get(op)
        if counter is None:
            counter = self.registry.counter(
                "worker_serves_total", "queries served", op=op
            )
            self._serves[op] = counter
        counter.inc()

    def frame(self) -> TelemetryFrame:
        self.seq += 1
        return TelemetryFrame.capture(
            self.label, self.seq, self.registry, spans=self.spans.drain()
        )


def _worker_main(
    conn: Any,
    shared: Optional[SharedPositions],
    radius: float,
    label: str = "w?",
    telemetry: bool = False,
) -> None:
    """Worker loop: maintain tile replicas, answer query batches.

    Module-level so the ``spawn`` start method can import it; all
    state arrives through the pipe or the shared position array.  With
    ``telemetry`` the worker keeps a private registry + span recorder
    and piggybacks a :class:`TelemetryFrame` on every reply that can
    carry one; dispatch messages carry the parent's
    :class:`TraceContext` so worker spans nest under the dispatch span.
    """
    from repro.check.sanitize import sanitizer_enabled

    if shared is not None and sanitizer_enabled():
        # Spawn children inherit the parent's environment, so the
        # sanitizer flag arms worker-side write protection here.
        shared.protect()
    replicas: Dict[TileId, _TileReplica] = {}
    tel = _WorkerTelemetry(label) if telemetry else None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent vanished (crash test, hard teardown): exit quietly
            # instead of spraying a traceback from the spawn bootstrap.
            return
        kind = message[0]
        if kind == "load":
            _, tile, members, mis, backbone, ctx = message
            if tel is not None:
                with tel.spans.span(
                    "shard.replica_load", parent=ctx, tile=str(tile)
                ) as span:
                    replicas[tile] = _replica_from_shared(
                        shared, radius, members, mis, backbone
                    )
                    span.set_attr("members", len(members))
                tel.registry.counter(
                    "worker_replica_loads_total", "tile replicas (re)built"
                ).inc()
            else:
                replicas[tile] = _replica_from_shared(
                    shared, radius, members, mis, backbone
                )
            conn.send(("loaded", tile))
        elif kind == "drop":
            replicas.pop(message[1], None)
            conn.send(("dropped", message[1]))
        elif kind == "query":
            _, items, ctx = message
            results = []
            if tel is not None:
                with tel.spans.span(
                    "shard.serve_batch", parent=ctx, items=len(items)
                ):
                    for qid, tile, op, args in items:
                        replica = replicas.get(tile)
                        value = (
                            None if replica is None else replica.serve(op, args)
                        )
                        results.append((qid, value))
                        tel.count_serve(op)
                tel.batches.inc()
                # Count the reply *before* capturing the frame so the
                # in-flight reply is included in its own snapshot —
                # that is what makes parent-side totals exact.
                tel.replies.inc()
                conn.send(("results", results, tel.frame()))
            else:
                for qid, tile, op, args in items:
                    replica = replicas.get(tile)
                    value = None if replica is None else replica.serve(op, args)
                    results.append((qid, value))
                conn.send(("results", results, None))
        elif kind == "probe":
            # Sanitizer probe: deliberately attempt the forbidden write
            # so tests/CI can prove worker-side protection is armed.
            error = None
            if shared is not None:
                try:
                    shared.array[0, 0] = shared.array[0, 0]  # repro: noqa[S2]
                except (ValueError, TypeError) as exc:
                    error = type(exc).__name__
            conn.send(("probed", error))
        elif kind == "flush":
            if tel is not None:
                tel.replies.inc()
            conn.send(("frame", tel.frame() if tel is not None else None))
        elif kind == "close":
            if tel is not None:
                tel.replies.inc()
            conn.send(("bye", tel.frame() if tel is not None else None))
            break
        else:  # pragma: no cover - protocol error
            raise ValueError(f"unknown message {kind!r}")
    if shared is not None:
        shared.close()
    conn.close()


class ShardServePool:
    """Query service over the stitched backbone.

    ``workers == 0`` serves inline from in-process replicas;
    ``workers > 0`` spreads tile replicas over spawn-context worker
    processes sharing one position array.  Either way the answers are
    identical — the worker path only changes where the replica lives.
    """

    def __init__(
        self,
        graph: UnitDiskGraph,
        config: Optional[ShardConfig] = None,
        *,
        registry=None,
        tracer=None,
    ) -> None:
        self.config = config or ShardConfig()
        self.registry = registry
        self.tracer = tracer if tracer is not None else get_tracer()
        self.graph = graph
        # Thread the *resolved* registry/tracer through (passing the raw
        # argument would hand the replicas a None tracer and silently
        # drop their instrumentation).
        self.backbone = ShardedBackbone(
            graph, self.config, registry=self.registry, tracer=self.tracer
        )
        self.tiler = self.backbone.tiler
        #: Cross-process telemetry is on whenever the pool has a
        #: registry: workers then keep private registries + span
        #: recorders and ship TelemetryFrames home on their replies.
        self.telemetry = registry is not None
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder("parent") if self.telemetry else None
        )
        self.harvest: Optional[TelemetryHarvest] = (
            TelemetryHarvest(registry) if self.telemetry else None
        )
        self.stitcher: Optional[TraceStitcher] = (
            TraceStitcher() if self.telemetry else None
        )
        #: Global backbone membership, maintained incrementally from
        #: per-tile contributions.  Both are refcounted: two tiles may
        #: choose the same connector, and a dominator that moves to a
        #: new tile is briefly contributed by both until the old tile's
        #: contribution is swapped out, in whichever order they apply.
        self._mis_counts: Dict[Node, int] = {}
        self._connector_counts: Dict[Node, int] = {}
        self._tile_mis: Dict[TileId, Set[Node]] = {}
        self._tile_conn: Dict[TileId, List[Node]] = {}
        for tile in self.tiler.tiles():
            self._apply_contribution(tile)
        self._workers: List[Tuple[Any, Any]] = []  # (process, conn)
        self._worker_of: Dict[TileId, int] = {}
        self.shared: Optional[SharedPositions] = None
        self._replicas: Dict[TileId, _TileReplica] = {}
        if self.config.workers > 0:
            self._start_workers()
        else:
            for tile in self.tiler.tiles():
                self._replicas[tile] = self._build_local_replica(tile)

    # ------------------------------------------------------------------
    # Global membership bookkeeping
    # ------------------------------------------------------------------
    def _apply_contribution(self, tile: TileId) -> Set[Node]:
        """Swap in a tile's current (MIS, connector) contribution;
        returns the nodes whose backbone membership changed."""
        status = self.backbone.tile_status(tile)
        new_mis = {v for v in self.tiler.owned(tile) if status.get(v) is True}
        new_conn = [chosen for _, _, chosen in self.backbone.tile_connectors(tile)]
        old_mis = self._tile_mis.get(tile, set())
        changed = old_mis ^ new_mis
        self._release_mis(old_mis - new_mis)
        for node in new_mis - old_mis:
            self._mis_counts[node] = self._mis_counts.get(node, 0) + 1
        counts = self._connector_counts
        for node in self._tile_conn.get(tile, []):
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]
                changed.add(node)
        for node in new_conn:
            if counts.get(node) is None:
                changed.add(node)
            counts[node] = counts.get(node, 0) + 1
        if new_mis or new_conn:
            self._tile_mis[tile] = new_mis
            self._tile_conn[tile] = new_conn
        else:
            self._tile_mis.pop(tile, None)
            self._tile_conn.pop(tile, None)
        return changed

    def _drop_contribution(self, tile: TileId) -> Set[Node]:
        """Remove a retired tile's contribution entirely."""
        changed = self._tile_mis.pop(tile, set())
        self._release_mis(changed)
        counts = self._connector_counts
        for node in self._tile_conn.pop(tile, []):
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]
                changed.add(node)
        return changed

    def _release_mis(self, nodes: Set[Node]) -> None:
        """Drop one tile's claim on each of ``nodes``; a node leaves the
        MIS only when no other tile still contributes it."""
        counts = self._mis_counts
        for node in nodes:
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]

    def backbone_nodes(self) -> Set[Node]:
        """The current global backbone (MIS plus live connectors)."""
        backbone = set(self._mis_counts)
        backbone.update(self._connector_counts)
        return backbone

    # ------------------------------------------------------------------
    # Replica construction
    # ------------------------------------------------------------------
    def _build_local_replica(self, tile: TileId) -> _TileReplica:
        members = self.tiler.members(tile)
        member_set = set(members)
        adjacency = {
            m: self.graph.adjacency(m) & member_set for m in members
        }
        backbone = self.backbone_nodes()
        return _TileReplica(
            members,
            adjacency,
            member_set & self._mis_counts.keys(),
            member_set & backbone,
        )

    def _tile_spec(self, tile: TileId) -> Tuple[List[int], List[int], List[int]]:
        """A tile's replica state as shared-array row indices."""
        index = self._index
        members = [index[m] for m in self.tiler.members(tile)]
        member_set = set(self.tiler.members(tile))
        mis = [index[m] for m in canonical_order(member_set & self._mis_counts.keys())]
        backbone = [
            index[m]
            for m in canonical_order(member_set & self.backbone_nodes())
        ]
        return members, mis, backbone

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        require_numpy()
        ctx = multiprocessing.get_context("spawn")
        self._nodes = canonical_order(self.graph.positions)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self.shared = SharedPositions.create(
            [
                (self.graph.positions[n].x, self.graph.positions[n].y)
                for n in self._nodes
            ]
        )
        for i in range(self.config.workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.shared,
                    self.graph.radius,
                    f"w{i}",
                    self.telemetry,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((process, parent_conn))
        tiles = self.tiler.tiles()
        for i, tile in enumerate(tiles):
            self._worker_of[tile] = i % len(self._workers)
        for tile in tiles:
            self._send_load(tile)

    def _worker_died(self, worker_id: int, error: BaseException) -> None:
        """A worker stopped answering: count it, flight-record it (which
        dumps the recorder when armed), and surface the failure."""
        if self.registry is not None:
            self.registry.counter(
                "shard_worker_deaths_total", "workers that stopped answering"
            ).inc()
        flight_record(
            "worker_death", worker=f"w{worker_id}", error=type(error).__name__
        )
        raise RuntimeError(f"shard pool worker w{worker_id} died") from error

    def _worker_send(self, worker_id: int, message: Tuple[Any, ...]) -> None:
        _, conn = self._workers[worker_id]
        try:
            conn.send(message)
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
            self._worker_died(worker_id, exc)

    def _worker_recv(self, worker_id: int) -> Tuple[Any, ...]:
        _, conn = self._workers[worker_id]
        try:
            return conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
            self._worker_died(worker_id, exc)
            raise  # pragma: no cover - _worker_died always raises

    def probe_shared_write(self) -> Optional[str]:
        """Ask worker 0 to attempt a shared-array write (sanitizer probe).

        Returns the exception name the write raised in the worker, or
        ``None`` when the write went through — which is the expected
        answer outside the sanitizer, and the answer an inline pool
        (no workers, no shared block) always gives.
        """
        if not self._workers or self.shared is None:
            return None
        self._worker_send(0, ("probe",))
        reply = self._worker_recv(0)
        return reply[1]

    def _absorb(self, frame: Optional[TelemetryFrame]) -> None:
        """Fold one worker frame into the parent-side pipeline."""
        if frame is None or self.harvest is None:
            return
        self.harvest.absorb(frame)
        if frame.spans and self.stitcher is not None:
            self.stitcher.add(frame.spans)
        if frame.flight:
            recorder = get_flight_recorder()
            if recorder is not None:
                recorder.extend(frame.flight)

    def _send_load(self, tile: TileId) -> None:
        members, mis, backbone = self._tile_spec(tile)
        worker_id = self._worker_of[tile]
        ctx: Optional[TraceContext] = None
        if self.spans is not None:
            with self.spans.span(
                "shard.load", tile=str(tile), members=len(members)
            ) as span:
                ctx = span.context
                self._worker_send(
                    worker_id, ("load", tile, members, mis, backbone, ctx)
                )
                reply = self._worker_recv(worker_id)
            if self.stitcher is not None:
                self.stitcher.add(self.spans.drain())
        else:
            self._worker_send(
                worker_id, ("load", tile, members, mis, backbone, None)
            )
            reply = self._worker_recv(worker_id)
        if reply[0] != "loaded":  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected worker reply {reply!r}")

    def _send_drop(self, tile: TileId) -> None:
        worker = self._worker_of.pop(tile, None)
        if worker is None:
            return
        self._worker_send(worker, ("drop", tile))
        reply = self._worker_recv(worker)
        if reply[0] != "dropped":  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected worker reply {reply!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[Query]) -> List[Any]:
        """Answer a batch of read queries, one result per query.

        Each query is routed to the replica of the tile *owning* its
        first node; routes are answered within that tile (``None`` when
        the target is beyond the tile's halo).  Worker mode groups the
        batch per worker and ships at most ``config.batch_size``
        queries per message.
        """
        results: List[Any] = [None] * len(queries)
        plan: List[Tuple[int, TileId, str, Tuple[Any, ...]]] = []
        for qid, query in enumerate(queries):
            op = query[0]
            args = tuple(query[1:])
            tile = self.tiler.owner.get(args[0])
            if tile is None:
                continue
            plan.append((qid, tile, op, args))
        if self.registry is not None:
            self.registry.counter(
                "shard_pool_queries_total", "Queries served by the shard pool"
            ).inc(len(plan))
        if not self._workers:
            for qid, tile, op, args in plan:
                replica = self._replicas.get(tile)
                if replica is not None:
                    results[qid] = replica.serve(op, args)
            return results
        index = self._index
        per_worker: Dict[int, List[Tuple[int, TileId, str, Tuple[Any, ...]]]] = {}
        for qid, tile, op, args in plan:
            translated = tuple(index[a] for a in args)
            per_worker.setdefault(self._worker_of[tile], []).append(
                (qid, tile, op, translated)
            )
        batch = self.config.batch_size
        # Pipeline the chunks: keep a bounded window in flight on every
        # worker at once, so two workers compute concurrently instead
        # of serving strictly one after the other.  The window bounds
        # the pipe backlog (sender and receiver both blocking on a full
        # pipe would deadlock).
        window = 2
        chunks: Dict[int, deque] = {}
        in_flight: Dict[int, int] = {}
        for worker_id, items in per_worker.items():
            chunks[worker_id] = deque(
                items[lo : lo + batch] for lo in range(0, len(items), batch)
            )
            in_flight[worker_id] = 0
        nodes = self._nodes
        ctx: Optional[TraceContext] = None
        if self.spans is not None:
            with self.spans.span(
                "shard.dispatch",
                queries=len(plan),
                workers=len(per_worker),
            ) as span:
                ctx = span.context
                # Recorded at dispatch time, before any pipe traffic, so
                # a worker-death dump always contains the last dispatch.
                flight_record(
                    "dispatch",
                    trace_id=ctx.trace_id,
                    span_id=ctx.span_id,
                    queries=len(plan),
                )
                self._pump(chunks, in_flight, window, ctx, results, nodes)
            if self.stitcher is not None:
                self.stitcher.add(self.spans.drain())
        else:
            self._pump(chunks, in_flight, window, None, results, nodes)
        return results

    def _pump(
        self,
        chunks: Dict[int, deque],
        in_flight: Dict[int, int],
        window: int,
        ctx: Optional[TraceContext],
        results: List[Any],
        nodes: List[Node],
    ) -> None:
        """Drive the windowed send/recv loop over every worker."""
        while any(chunks.values()) or any(in_flight.values()):
            for worker_id in sorted(chunks):
                while chunks[worker_id] and in_flight[worker_id] < window:
                    self._worker_send(
                        worker_id, ("query", chunks[worker_id].popleft(), ctx)
                    )
                    in_flight[worker_id] += 1
            for worker_id in sorted(chunks):
                if in_flight[worker_id] == 0:
                    continue
                reply = self._worker_recv(worker_id)
                in_flight[worker_id] -= 1
                if reply[0] != "results":  # pragma: no cover
                    raise RuntimeError(f"unexpected worker reply {reply!r}")
                for qid, value in reply[1]:
                    if isinstance(value, list):
                        value = [nodes[i] for i in value]
                    elif isinstance(value, int) and not isinstance(value, bool):
                        value = self._nodes[value]
                    results[qid] = value
                self._absorb(reply[2])

    def dominator(self, node: Node) -> Optional[Node]:
        """The node's dominator (itself, or its lowest MIS neighbor)."""
        return self.query_batch([("dominator", node)])[0]

    def backbone_member(self, node: Node) -> bool:
        """Whether the node is in the stitched backbone."""
        return bool(self.query_batch([("member", node)])[0])

    def route(self, u: Node, v: Node) -> Optional[List[Node]]:
        """A black-edge route within ``u``'s tile, or ``None``."""
        return self.query_batch([("route", u, v)])[0]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def move(self, node: Node, new_position) -> InvalidationReport:
        """Move a node: one shared-array row write, a boundary-only
        re-stitch, and refreshes of exactly the affected replicas."""
        report = self.backbone.apply_move(node, new_position)
        if self.shared is not None:
            row = self._index[node]
            position = self.graph.positions[node]
            self.shared.array[row, 0] = position.x
            self.shared.array[row, 1] = position.y
        live = set(self.tiler.tiles())
        refresh = set(report.rebuilt)
        changed: Set[Node] = set()
        for tile in sorted(refresh & live):
            changed |= self._apply_contribution(tile)
        for tile in [t for t in self._tile_mis if t not in live]:
            changed |= self._drop_contribution(tile)
        for moved_or_flipped in canonical_order(changed | {node}):
            refresh.update(self.tiler.tiles_reading(moved_or_flipped))
        for tile in sorted(refresh):
            if tile not in live:
                if self._workers:
                    self._send_drop(tile)
                else:
                    self._replicas.pop(tile, None)
            elif self._workers:
                if tile not in self._worker_of:
                    self._worker_of[tile] = (
                        len(self._worker_of) % len(self._workers)
                    )
                self._send_load(tile)
            else:
                self._replicas[tile] = self._build_local_replica(tile)
        if self.registry is not None:
            self.registry.counter(
                "shard_replica_refreshes_total",
                "Tile replicas refreshed after churn",
            ).inc(len(refresh & live))
        return report

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def flush_telemetry(self) -> None:
        """Pull a fresh frame from every live worker (the periodic
        flush: exact fleet totals without waiting for the next batch)."""
        if not self.telemetry:
            return
        for worker_id in range(len(self._workers)):
            self._worker_send(worker_id, ("flush",))
            reply = self._worker_recv(worker_id)
            if reply[0] != "frame":  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected worker reply {reply!r}")
            self._absorb(reply[1])
        if self.spans is not None and self.stitcher is not None:
            self.stitcher.add(self.spans.drain())

    def merged_telemetry(self) -> Dict[str, Any]:
        """The latest per-worker metric states merged into one fleet
        state (see :func:`repro.obs.pipeline.merge_snapshots`)."""
        if self.harvest is None:
            return {"ts": 0.0, "families": {}}
        return self.harvest.merged()

    def export_trace(self, path: str) -> int:
        """Write the stitched trace as JSONL; returns the span count."""
        if self.stitcher is None:
            return 0
        if self.spans is not None:
            self.stitcher.add(self.spans.drain())
        return self.stitcher.to_jsonl(path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers (absorbing their final frames) and release the
        shared segment."""
        for process, conn in self._workers:
            try:
                conn.send(("close",))
                reply = conn.recv()
                if len(reply) > 1:
                    self._absorb(reply[1])
            except (BrokenPipeError, EOFError, OSError):  # pragma: no cover
                pass
            conn.close()
            process.join(timeout=10)
        self._workers = []
        if self.spans is not None and self.stitcher is not None:
            self.stitcher.add(self.spans.drain())
        if self.shared is not None:
            self.shared.close()
            self.shared.unlink()
            self.shared = None

    def __enter__(self) -> "ShardServePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
