"""Serving the stitched backbone: tile replicas and a worker pool.

The parent process is the *control plane*: it owns the graph, the
:class:`~repro.shard.stitch.ShardedBackbone`, and the stitching.  The
*data plane* is a set of :class:`_TileReplica` objects — one per tile,
each holding only its tile's members, induced adjacency, and backbone
membership — that answer the read queries (``dominator``, ``member``,
``route``) without ever touching global state.

The replicas are spread round-robin over the workers of a
:class:`~repro.workers.WorkerGroup` (with ``config.workers == 0``, its
one in-process lane: no multiprocessing, fully deterministic).  Node
``i`` of ``graph.numbering()`` is row ``i`` of the group's float64
position array, shared memory across processes: a replica rebuilds a
tile's adjacency by reading member rows straight from it, so a refresh
message carries only row indices and membership bits — O(tile), never
O(n) — and a position update is one row write by the parent, not a
broadcast.  This module supplies only the handler for ``load``,
``patch``, ``drop`` and ``query``; the worker loop, the windowed pump,
telemetry frames, death handling and the close handshake are the
substrate's.

Churn (:meth:`ShardServePool.move`) re-stitches the affected tiles via
the backbone's boundary-only invalidation, then refreshes exactly the
replicas whose view changed: the re-stitched tiles plus any tile
reading the moved node or a node the report lists as ``flipped``.  A
replica whose member set survived the move is patched in place (the
moved row and the flipped flags); only a tile the node entered or
left, or a new tile, is loaded in full.  Backbone membership is the
backbone's own (:meth:`ShardedBackbone.membership`); the pool keeps no
copy of it, nor of what it shipped.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from typing import (
    AbstractSet,
    Any,
    Collection,
    Container,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.graphs.udg import UnitDiskGraph
from repro.obs.flightrec import flight_record
from repro.obs.tracing import get_tracer
from repro.shard.config import ShardConfig
from repro.shard.stitch import InvalidationReport, ShardedBackbone
from repro.shard.tiler import TileId
from repro.workers import SharedPositions, WorkerClient, WorkerEnv, WorkerGroup

Node = Hashable
#: A read query: ``("dominator", u)``, ``("member", u)``, or
#: ``("route", u, v)``.
Query = Tuple[Any, ...]

#: Per-source route BFS trees a replica keeps, least recently used out.
_ROUTE_TREES = 4


class _TileReplica:
    """One tile's serveable state, numbered once per load.

    ``nodes`` are the tile's members in ascending order and ``adj[i]``
    is the ascending tuple of member ``i``'s neighbours' numbers, so
    number order is id order.  ``mis`` and ``backbone`` are containers
    of member ids, read once into the ``is_mis`` / ``black`` flags.
    ``hops[i]`` is every neighbour of a black ``i`` and only the black
    neighbours of a white one: the edges a route may use.  A replica
    owns its ``adj`` list, so a move that keeps the member set patches
    it in place (:func:`_patch_from_shared`).  ``trees`` maps a
    source number to its route BFS state ``(parent, frontier, at)``.
    """

    __slots__ = ("nodes", "index", "adj", "is_mis", "black", "hops", "trees")

    def __init__(
        self,
        nodes: Sequence[Node],
        adj: Sequence[Tuple[int, ...]],
        mis: Container[Node],
        backbone: Container[Node],
    ) -> None:
        self.nodes = nodes
        self.index: Dict[Node, int] = dict(zip(nodes, range(len(nodes))))
        self.adj = adj
        self.is_mis = bytearray(map(mis.__contains__, nodes))
        black = self.black = bytearray(map(backbone.__contains__, nodes))
        self.hops: List[Tuple[int, ...]] = [
            row if black[i] else tuple([j for j in row if black[j]])
            for i, row in enumerate(adj)
        ]
        self.trees: Dict[int, Tuple[List[int], List[int], int]] = {}

    def dominator(self, u: Node) -> Optional[Node]:
        """The node's dominator: itself if in the MIS, else its lowest
        MIS neighbor (every node is dominated — Algorithm II's MIS)."""
        i = self.index.get(u)
        if i is None:
            return None
        is_mis = self.is_mis
        if is_mis[i]:
            return u
        for j in self.adj[i]:
            if is_mis[j]:
                return self.nodes[j]
        return None

    def member(self, u: Node) -> bool:
        """Whether the node is a backbone (WCDS) member."""
        i = self.index.get(u)
        return i is not None and self.black[i] == 1

    def route(self, u: Node, v: Node) -> Optional[List[Node]]:
        """Minimum-hop path from ``u`` to ``v`` over *black edges*
        (edges with a backbone endpoint) within the tile, or ``None``
        when either endpoint is outside the tile or unreachable.

        A BFS over ``hops`` in ascending number order: a node's parent
        is the first popped node to reach it, as in an id-ordered BFS.
        The BFS stops at ``v`` and is kept in ``trees``: a later route
        from ``u`` walks ``parent`` if its target is reached, else
        re-scans ``frontier[at]`` (the node that reached the last
        target), skipping parented neighbours, so every ``parent`` is a
        prefix of the full BFS's and every path is the same.
        """
        index = self.index
        s = index.get(u)
        t = index.get(v)
        if s is None or t is None:
            return None
        if s == t:
            return [u]
        trees = self.trees
        tree = trees.pop(s, None)
        scan: Iterable[int]
        if tree is None:
            if len(trees) >= _ROUTE_TREES:
                del trees[next(iter(trees))]
            parent = [-1] * len(self.hops)
            parent[s] = s
            frontier = scan = [s]
            at = 0
        else:
            trees[s] = tree  # back in as the most recently used
            parent, frontier, at = tree
            if parent[t] >= 0:
                return self._path(parent, s, t)
            scan = islice(frontier, at, None)
        hops = self.hops
        for node in scan:
            for nbr in hops[node]:
                if parent[nbr] < 0:
                    parent[nbr] = node
                    frontier.append(nbr)
                    if nbr == t:
                        trees[s] = (parent, frontier, frontier.index(node, at))
                        return self._path(parent, s, t)
        trees[s] = (parent, frontier, len(frontier))
        return None

    def _path(self, parent: List[int], s: int, t: int) -> List[Node]:
        nodes = self.nodes
        path = [nodes[t]]
        while t != s:
            t = parent[t]
            path.append(nodes[t])
        path.reverse()
        return path

    def serve(self, op: str, args: Sequence[Any]) -> Any:
        if op == "route":
            return self.route(args[0], args[1])
        if op == "dominator":
            return self.dominator(args[0])
        if op == "member":
            return self.member(args[0])
        raise ValueError(f"unknown query op {op!r}")


#: Where a handler reads position rows: ``.array`` of its env or of a
#: shared block.
_Rows = Union[WorkerEnv, SharedPositions]


def _replica_from_shared(
    shared: _Rows,
    radius: float,
    members: Sequence[int],
    mis: Sequence[int],
    backbone: Sequence[int],
) -> _TileReplica:
    """Build a replica in-worker: adjacency recomputed from the
    position rows (only indices crossed the pipe)."""
    from repro.kernels.udg import edge_runs, vector_udg_edges

    rows = sorted(members)
    count = len(rows)
    tails, cuts = edge_runs(vector_udg_edges(shared.array[rows], radius), count)
    # One int object per number, shared by every row that holds it (as
    # in the stitch's index), not one per edge entry from ``.tolist()``:
    # the route BFS reads the shared ones measurably faster.
    tails = list(map(list(range(count)).__getitem__, tails))
    adj = [tuple(tails[cuts[i] : cuts[i + 1]]) for i in range(count)]
    return _TileReplica(rows, adj, set(mis), set(backbone))


def _patch_from_shared(
    replica: _TileReplica,
    shared: _Rows,
    radius: float,
    moved: Optional[int],
    flips: Sequence[Tuple[int, bool, bool]],
) -> None:
    """Patch a replica in place after a move that kept its
    member set, to what :func:`_replica_from_shared` would build now.

    ``moved`` is the moved node's row when it is a member: its edges
    are re-read from the position rows with the edge kernel's predicate
    (``dx*dx + dy*dy <= radius*radius``), and the rows of the members
    it gained or lost are fixed.  ``flips`` are ``(row, is_mis,
    black)`` for the member rows whose membership flipped.  ``hops``
    is recomputed only where it can change: rows whose edges changed,
    and a row whose own or a neighbour's ``black`` flag flipped.
    """
    index = replica.index
    adj = replica.adj
    dirty: Set[int] = set()
    if moved is not None:
        i = index[moved]
        coords = shared.array[replica.nodes]
        dx = coords[:, 0] - coords[i, 0]
        dy = coords[:, 1] - coords[i, 1]
        near = np.flatnonzero(dx * dx + dy * dy <= radius * radius).tolist()
        near.remove(i)
        new = tuple(near)
        for j in set(adj[i]).symmetric_difference(new):
            row = adj[j]
            adj[j] = tuple(sorted((*row, i))) if j in new else tuple(
                k for k in row if k != i
            )
            dirty.add(j)
        adj[i] = new
        dirty.add(i)
    is_mis = replica.is_mis
    black = replica.black
    for row_id, in_mis, in_backbone in flips:
        k = index[row_id]
        is_mis[k] = in_mis
        if black[k] != in_backbone:
            black[k] = in_backbone
            dirty.add(k)
            dirty.update(adj[k])
    hops = replica.hops
    for k in dirty:
        row = adj[k]
        hops[k] = row if black[k] else tuple([j for j in row if black[j]])
    if dirty:
        replica.trees.clear()


#: A dispatched query: ``(qid, tile, op, args)``.
_Item = Tuple[int, TileId, str, Sequence[Any]]


def _serve_items(
    replicas: Dict[TileId, _TileReplica], items: Sequence[_Item]
) -> List[Tuple[int, Any]]:
    """Answer one chunk: ``(qid, answer)`` per item, ``None`` for a
    tile this worker does not hold."""
    results: List[Tuple[int, Any]] = []
    for qid, tile, op, args in items:
        replica = replicas.get(tile)
        results.append((qid, None if replica is None else replica.serve(op, args)))
    return results


#: The worker counter of each replica refresh kind.
_REFRESH_COUNTERS = {
    "load": ("worker_replica_loads_total", "tile replicas (re)built"),
    "patch": ("worker_replica_patches_total", "tile replicas patched in place"),
}


def _apply_refresh(env: WorkerEnv, message: Tuple[Any, ...]) -> None:
    """Build (``load``) or patch (``patch``) one replica in-worker."""
    replicas: Dict[TileId, _TileReplica] = env.state
    if message[0] == "load":
        _, tile, members, mis, backbone, _ = message
        replicas[tile] = _replica_from_shared(
            env, env.args[0], members, mis, backbone
        )
    else:
        _, tile, moved, flips, _ = message
        _patch_from_shared(replicas[tile], env, env.args[0], moved, flips)


def _serve_tiles(env: WorkerEnv, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The pool's handler: keep this worker's tile replicas in
    ``env.state`` and answer ``load``, ``patch``, ``drop`` and
    ``query``.

    ``load``, ``patch`` and ``query`` messages carry the parent's
    :class:`~repro.obs.tracing.TraceContext`, so worker spans nest
    under the parent's ``shard.refresh`` / ``shard.dispatch`` span.
    Every refresh is answered ``("refreshed", tile)``.
    """
    replicas: Dict[TileId, _TileReplica] = env.state
    tel = env.tel
    kind = message[0]
    if kind == "query":
        _, items, ctx = message
        if tel is None:
            return ("results", _serve_items(replicas, items), None)
        with tel.spans.span("shard.serve_batch", parent=ctx, items=len(items)):
            results = _serve_items(replicas, items)
            # Counted per op and chunk: a served route is only tens of
            # µs, so a counter update per query shows.
            for op, n in Counter(item[2] for item in items).items():
                tel.registry.counter(
                    "worker_serves_total", "queries served", op=op
                ).inc(n)
        tel.batches.inc()
        return ("results", results, env.frame())
    tile = message[1]
    if kind == "drop":
        replicas.pop(tile, None)
        return ("refreshed", tile)
    if kind not in _REFRESH_COUNTERS:  # pragma: no cover - protocol error
        raise ValueError(f"unknown message {kind!r}")
    if tel is None:
        _apply_refresh(env, message)
        return ("refreshed", tile)
    attrs = {"members": len(message[2])} if kind == "load" else {
        "flips": len(message[3])
    }
    with tel.spans.span(
        f"shard.replica_{kind}", parent=message[-1], tile=str(tile), **attrs
    ):
        _apply_refresh(env, message)
    tel.registry.counter(*_REFRESH_COUNTERS[kind]).inc()
    return ("refreshed", tile)


class ShardServePool(WorkerClient):
    """Query service over the stitched backbone.

    ``workers > 0`` spreads tile replicas over spawn-context worker
    processes sharing one position array; ``workers == 0`` keeps them
    in the group's in-process lane, which gets the same messages, so
    the answers are identical.  Telemetry is on whenever the pool has a
    registry: each worker then keeps a private registry and
    :class:`~repro.obs.tracing.Tracer` and ships frames home on its
    replies, and the harvest folds them into that registry, the one
    fleet view (fleet totals plus ``worker=`` children).
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
        #: Position row ``i`` is node ``_nodes[i]``; moves never reorder
        #: the start-time numbering.
        self._nodes: Sequence[Node] = graph.numbering().nodes
        self._index = graph.numbering().index
        self.group = WorkerGroup(
            handler=_serve_tiles,
            count=self.config.workers,
            prefix="w",
            rows=[graph.positions[node] for node in self._nodes],
            args=(graph.radius,),
            registry=registry,
            died="shard pool worker {} died",
            deaths_metric="shard_worker_deaths_total",
        )
        self._worker_of: Dict[TileId, int] = {}
        try:
            self._refresh(self.tiler.tiles())
        except BaseException:
            self.group.close()
            raise

    def backbone_nodes(self) -> Set[Node]:
        """The current global backbone (MIS plus live connectors)."""
        return set(self.backbone.membership()[1])

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def _refresh(
        self,
        tiles: Collection[TileId],
        moved: Optional[Node] = None,
        before: AbstractSet[TileId] = frozenset(),
        flipped: Sequence[Node] = (),
    ) -> None:
        """Bring the replicas of ``tiles`` up to the backbone's current
        membership (:meth:`ShardedBackbone.membership`); a tile no
        longer live is dropped.

        A replica is *patched* when its member set survived the
        move of ``moved`` (``before`` are the tiles that read it before
        the move): the moved node's row if it is still a member, plus
        ``(row, is_mis, black)`` for each member in ``flipped``.  A tile
        with neither is left alone.  A tile ``moved`` entered or left,
        or a new one, is *loaded*: its member rows and its MIS and
        backbone rows.  Every message goes out through the group's
        windowed pump, so the workers refresh concurrently, under one
        ``shard.refresh`` span.
        """
        mis, backbone = self.backbone.membership()
        live = set(self.tiler.tiles())
        workers = len(self.group.conns)
        index = self._index
        tiler = self.tiler
        flags: Dict[TileId, List[Tuple[int, bool, bool]]] = {}
        for v in flipped:
            flag = (index[v], v in mis, v in backbone)
            for tile in tiler.tiles_reading(v):
                flags.setdefault(tile, []).append(flag)
        reading = set() if moved is None else set(tiler.tiles_reading(moved))
        renumbered = reading.symmetric_difference(before)
        worker_of = self._worker_of
        queues: Dict[int, Deque[Tuple[Any, ...]]] = {
            worker: deque() for worker in range(workers)
        }
        group = self.group
        with group.span("shard.refresh", tiles=len(tiles)) as ctx:
            for tile in sorted(tiles):
                if tile not in live:
                    worker = worker_of.pop(tile, None)
                    if worker is not None:
                        queues[worker].append(("drop", tile))
                elif tile in worker_of and tile not in renumbered:
                    row = index[moved] if tile in reading else None
                    if row is not None or tile in flags:
                        queues[worker_of[tile]].append(
                            ("patch", tile, row, flags.get(tile, []), ctx)
                        )
                else:
                    worker = worker_of.setdefault(tile, len(worker_of) % workers)
                    members = tiler.members(tile)
                    queues[worker].append((
                        "load",
                        tile,
                        [index[m] for m in members],
                        [index[m] for m in members if m in mis],
                        [index[m] for m in members if m in backbone],
                        ctx,
                    ))
            group.pump(queues, "refreshed")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[Query]) -> List[Any]:
        """Answer a batch of read queries, one result per query.

        Each query is routed to the replica of the tile *owning* its
        first node; routes are answered within that tile (``None`` when
        the target is beyond the tile's halo).  The batch is grouped per
        worker and shipped at most ``config.batch_size`` queries per
        message.
        """
        results: List[Any] = [None] * len(queries)
        owner = self.tiler.owner
        plan: List[_Item] = []
        for qid, query in enumerate(queries):
            tile = owner.get(query[1])
            if tile is not None:
                plan.append((qid, tile, query[0], query[1:]))
        if self.registry is not None:
            self.registry.counter(
                "shard_pool_queries_total", "Queries served by the shard pool"
            ).inc(len(plan))
        index = self._index
        worker_of = self._worker_of
        per_worker: Dict[int, List[_Item]] = {}
        for qid, tile, op, args in plan:
            rows = [index.get(a) for a in args]
            if None in rows:
                # An argument with no row cannot be in any tile: its
                # answer is None without shipping it.
                continue
            per_worker.setdefault(worker_of[tile], []).append((qid, tile, op, rows))
        batch = self.config.batch_size
        nodes = self._nodes
        group = self.group

        def collect(reply: Tuple[Any, ...]) -> None:
            for qid, value in reply[1]:
                if isinstance(value, list):
                    value = [nodes[i] for i in value]
                elif isinstance(value, int) and not isinstance(value, bool):
                    value = nodes[value]
                results[qid] = value
            group.absorb(reply[2])

        with group.span(
            "shard.dispatch", queries=len(plan), workers=len(per_worker)
        ) as ctx:
            if ctx is not None:
                # Recorded at dispatch time, before any pipe traffic, so
                # a worker-death dump always contains the last dispatch.
                flight_record(
                    "dispatch",
                    trace_id=ctx.trace_id,
                    span_id=ctx.span_id,
                    queries=len(plan),
                )
            chunks = {
                worker_id: deque(
                    ("query", items[lo : lo + batch], ctx)
                    for lo in range(0, len(items), batch)
                )
                for worker_id, items in per_worker.items()
            }
            group.pump(chunks, "results", collect)
        return results

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
        """Move a node: one position row write, a boundary-only
        re-stitch, and refreshes of exactly the affected replicas."""
        before = set(self.tiler.tiles_reading(node))
        report = self.backbone.apply_move(node, new_position)
        self.group.array[self._index[node]] = tuple(self.graph.positions[node])
        # Retired seeds are dropped; the rest of the seeds were rebuilt.
        refresh = set(report.rebuilt).union(report.seed_tiles)
        for moved_or_flipped in (node, *report.flipped):
            refresh.update(self.tiler.tiles_reading(moved_or_flipped))
        self._refresh(refresh, node, before, report.flipped)
        if self.registry is not None:
            self.registry.counter(
                "shard_replica_refreshes_total",
                "Tile replicas refreshed after churn",
            ).inc(len(refresh.intersection(self.tiler.tiles())))
        return report

    def flush_telemetry(self) -> None:
        """Pull a fresh frame from every live worker (the periodic
        flush: exact fleet totals without waiting for the next batch)."""
        self.group.flush()
