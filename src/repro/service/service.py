"""The backbone service: a long-lived WCDS answering queries under churn.

One :class:`BackboneService` owns a topology and its Algorithm II
backbone and serves four queries — ``dominator(u)``, ``route(u, v)``,
``backbone()``, ``broadcast_plan(s)`` — while absorbing streaming
topology updates (join / leave / move).

Freshness model
---------------
Updates are cheap to *ingest* (the route cache is invalidated by region
and the event is queued) and lazily *absorbed*: the next query first
flushes pending events through the incremental maintenance rules of
:class:`repro.mobility.maintenance.MaintainedWCDS` (3-hop-local
repairs), falling back to a full ``algorithm2_centralized`` rebuild
only once the cumulative fraction of touched nodes passes
``ServiceConfig.rebuild_threshold``.  Routing tables are rebuilt on a
frozen copy of the topology, so the previous tables stay servable: when
a request carries a ``deadline`` too small for the estimated pending
work, the service answers from that **last-good** snapshot with
``Response.stale = True`` instead of blocking.

Every request is timed into latency histograms and every cache touch,
repair, rebuild, stale serve, and rejection is counted
(:class:`repro.service.metrics.ServiceMetrics`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.mobility.maintenance import MaintainedWCDS
from repro.mobility.waypoint import LinkEvents
from repro.obs.flightrec import flight_record
from repro.obs.slo import SLOMonitor
from repro.routing.broadcast import SpannerIndex
from repro.routing.clusterhead import ClusterheadRouter
from repro.service.cache import RouteCache
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.requests import Request, RequestQueue, Response
from repro.wcds.base import WCDSResult

#: Max entries in the LRU route cache.
ROUTE_CACHE_SIZE = 4096
#: Hop radius around an updated node whose cached routes are
#: invalidated (2 covers re-clustering, +1 for connector churn).
INVALIDATION_RADIUS = 3
#: Smoothing factor of the EWMA refresh-cost estimate used to decide
#: whether a deadline still fits a synchronous refresh.
COST_EWMA_ALPHA = 0.3


class _Ewma:
    """Exponentially weighted moving average of a cost, in seconds."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def update(self, sample: float) -> None:
        if self.value == 0.0:
            self.value = sample
        else:
            self.value += COST_EWMA_ALPHA * (sample - self.value)


class _Snapshot:
    """The last-good serving state: frozen graph, backbone, tables, and
    the broadcast plans computed on them."""

    __slots__ = ("graph", "result", "router", "plans", "_spanner")

    def __init__(self, graph: UnitDiskGraph, result: WCDSResult) -> None:
        self.graph = graph
        self.result = result
        self.router = ClusterheadRouter(graph, result)
        #: Broadcast plans by source.  The graph is a frozen copy, so a
        #: plan stays valid for as long as its snapshot serves.
        self.plans: Dict[Hashable, Dict[str, object]] = {}
        self._spanner: Optional[SpannerIndex] = None

    def broadcast_plan(self, source: Hashable) -> Dict[str, object]:
        """The forwarder schedule of a backbone broadcast from
        ``source``: the source, the dominators, and on-demand gray
        gateways, in transmission order.  The spanner is numbered on
        the first plan and shared by every later plan of the snapshot.
        """
        if self._spanner is None:
            self._spanner = SpannerIndex(self.graph, self.result.dominators)
        forwarders, covered = self._spanner.schedule(source)
        return {
            "source": source,
            "forwarders": forwarders,
            "transmissions": len(forwarders),
            "covered": covered,
            "total": self.graph.num_nodes,
        }


class BackboneService:
    """Serves backbone queries over a topology that keeps changing."""

    def __init__(
        self,
        udg: UnitDiskGraph,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        registry: Any = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock
        self.graph = udg
        self.metrics = ServiceMetrics(registry)
        #: Scores every request against the configured objectives
        #: (``None`` when ``config.slos`` is empty).
        self.slo_monitor: Optional[SLOMonitor] = (
            SLOMonitor(self.config.slos, registry=self.metrics.registry)
            if self.config.slos
            else None
        )
        self.route_cache = RouteCache(ROUTE_CACHE_SIZE)
        self.queue = RequestQueue(self.config.queue_capacity)
        #: Pending maintenance work, in arrival order.  Entries are
        #: ("events", LinkEvents) | ("on", node, (x, y)) | ("off", node),
        #: and on the sharded path ("moved", node) for a move that
        #: flipped no link.
        self._pending: List[Tuple] = []
        self._dirt = 0.0
        self._version = 0
        #: Active partition faults (by signal identity) and the last
        #: known positions of crashed radios, for revival.
        self._active_partitions: set = set()
        self._crashed_positions: Dict[Hashable, Tuple[float, float]] = {}
        self._repair_cost = _Ewma()
        self._rebuild_cost = _Ewma()
        started = self.clock()
        self._sharded = None
        self._maintained: Optional[MaintainedWCDS] = None
        if self.config.sharding is not None:
            from repro.shard.stitch import ShardedBackbone

            self._sharded = ShardedBackbone(
                udg, self.config.sharding, registry=registry
            )
            self._snapshot = _Snapshot(udg.copy(), self._sharded.result())
        else:
            self._maintained = MaintainedWCDS(udg)
            self._snapshot = _Snapshot(udg.copy(), self._maintained.result())
        self._rebuild_cost.update(self.clock() - started)

    # ------------------------------------------------------------------
    # Topology updates (ingest is cheap; absorption is lazy)
    # ------------------------------------------------------------------
    def join(self, node: Hashable, x: float, y: float) -> None:
        """A radio turns on at ``(x, y)``."""
        self._ingest(("on", node, (float(x), float(y))), seeds=[node], weight=1)
        self.metrics.incr("updates_join")

    def leave(self, node: Hashable) -> None:
        """A radio turns off."""
        seeds = [node]
        if node in self.graph:
            seeds.extend(self.graph.adjacency(node))
        self._ingest(("off", node), seeds=seeds, weight=len(seeds))
        self.metrics.incr("updates_leave")

    def ingest_events(self, events: LinkEvents) -> None:
        """Absorb link-layer events from an external mover (the node
        positions in ``self.graph`` must already reflect them, as the
        mobility models guarantee)."""
        if events.is_empty:
            return
        endpoints = events.endpoints
        self._ingest(("events", events), seeds=endpoints, weight=len(endpoints))
        self.metrics.incr("updates_move")
        self.metrics.incr("link_events", len(events.gained) + len(events.lost))

    def move(self, node: Hashable, x: float, y: float) -> None:
        """Move one radio, deriving its link events."""
        from repro.geometry.point import Point

        gained, lost = self.graph.move_node(node, Point(float(x), float(y)))
        events = LinkEvents(
            gained=tuple((node, other) for other in gained),
            lost=tuple((node, other) for other in lost),
        )
        if events.is_empty and self._sharded is not None:
            # No link flipped, but the tiler indexes positions: the node
            # may have crossed into another tile or halo.
            self._ingest(("moved", node), seeds=[node], weight=1)
            self.metrics.incr("updates_move")
            return
        self.ingest_events(events)

    # ------------------------------------------------------------------
    # Fault signals (from a chaos run or an external failure detector)
    # ------------------------------------------------------------------
    def fault_signal(self, event) -> None:
        """React to one :mod:`repro.faults` event.

        * :class:`~repro.faults.plan.Crash` — the radio leaves the
          topology; its position is remembered for a later revival.
        * :class:`~repro.faults.plan.Revive` — the radio re-joins at
          its last known position.
        * :class:`~repro.faults.plan.Partition` — while active (and
          ``config.degrade_on_partition`` is set) the service serves
          stale from the last-good snapshot; call :meth:`heal_signal`
          when it heals.
        * :class:`~repro.faults.plan.LossBurst` — counted only; the
          transport layer absorbs loss.
        """
        from repro.faults.plan import Crash, LossBurst, Partition, Revive

        flight_record("fault_signal", event=type(event).__name__)
        if isinstance(event, Crash):
            node = event.node
            if node in self.graph:
                pos = self.graph.position(node)
                self._crashed_positions[node] = (pos.x, pos.y)
                self.leave(node)
            self.metrics.incr("fault_crashes")
        elif isinstance(event, Revive):
            position = self._crashed_positions.pop(event.node, None)
            # No `in self.graph` guard: the crash's leave may still be
            # pending (absorption is lazy), and the queue preserves the
            # off-then-on order.
            if position is not None:
                self.join(event.node, *position)
            self.metrics.incr("fault_revivals")
        elif isinstance(event, Partition):
            self._active_partitions.add(event)
            self.metrics.incr("fault_partitions")
        elif isinstance(event, LossBurst):
            self.metrics.incr("fault_loss_bursts")
        else:
            raise TypeError(f"unknown fault event {event!r}")

    def heal_signal(self, event=None) -> None:
        """A partition healed; ``None`` clears all active partitions."""
        if event is None:
            self._active_partitions.clear()
        else:
            self._active_partitions.discard(event)
        self.metrics.incr("fault_heals")

    @property
    def degraded(self) -> bool:
        """Whether the service is in partition-degraded mode."""
        return (
            self.config.degrade_on_partition
            and bool(self._active_partitions)
        )

    def _ingest(
        self, entry: Tuple, seeds: Iterable[Hashable], weight: int
    ) -> None:
        self._pending.append(entry)
        self._version += 1
        self._dirt += weight / max(1, self.graph.num_nodes)
        if self._sharded is not None:
            # Tile-scoped: only routes through the tiles that read a
            # touched node can change, so unrelated cached routes
            # elsewhere in the deployment survive the churn.
            evicted = self.route_cache.invalidate_nodes(
                self._sharded_blast_radius(entry, seeds)
            )
        else:
            evicted = self.route_cache.invalidate_region(
                self.graph, seeds, INVALIDATION_RADIUS
            )
        self.metrics.incr("updates_total")
        self.metrics.incr("route_cache_invalidated", evicted)

    def _sharded_blast_radius(
        self, entry: Tuple, seeds: Iterable[Hashable]
    ) -> set:
        """Nodes whose cached routes a sharded update can affect: the
        members of every tile reading a seed node (a joining node is
        mapped by its target position; the tiler has not indexed it
        yet)."""
        from repro.geometry.point import Point

        tiler = self._sharded.tiler
        tiles = set()
        for seed in seeds:
            tiles.update(tiler.tiles_reading(seed))
        if entry[0] == "on":
            tiles.add(tiler.tile_of(Point(*entry[2])))
        nodes = set(seeds)
        for tile in tiles:
            nodes.update(tiler.members(tile))
        return nodes

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def dirtiness(self) -> float:
        """Cumulative touched-node fraction since the last full build."""
        return self._dirt

    @property
    def has_pending_work(self) -> bool:
        """Whether queries must repair or rebuild before answering
        fresh."""
        return bool(self._pending)

    def _estimated_refresh_cost(self) -> float:
        if not self._pending:
            return 0.0
        if self._dirt >= self.config.rebuild_threshold:
            return self._rebuild_cost.value
        return self._repair_cost.value + self._rebuild_cost.value * 0.25

    def _can_refresh_within(self, deadline: Optional[float]) -> bool:
        return deadline is None or self._estimated_refresh_cost() <= deadline

    def refresh(self) -> None:
        """Absorb all pending updates now (repair or full rebuild) and
        re-freeze the last-good snapshot."""
        if not self._pending:
            return
        if self._sharded is not None:
            self._refresh_sharded()
            return
        started = self.clock()
        if self._dirt >= self.config.rebuild_threshold:
            self._apply_pending_mutations_only()
            self._maintained = MaintainedWCDS(self.graph)
            self.route_cache.clear()
            self.metrics.incr("rebuilds_full")
            self._rebuild_cost.update(self.clock() - started)
            self._pending.clear()
        else:
            batches = 0
            # Pop as we go: if a repair raises, the entry is not retried
            # (it is partially applied) but later entries stay queued.
            while self._pending:
                report = self._apply_entry(self._pending.pop(0))
                batches += 1
                if report is not None:
                    self.metrics.incr("roles_changed", len(report.touched))
            self.metrics.incr("repairs", batches)
            self._repair_cost.update((self.clock() - started) / max(1, batches))
        self._refreeze(self._maintained.result())

    def _refresh_sharded(self) -> None:
        """Absorb pending updates by boundary-only re-stitching.

        There is no full-rebuild escape hatch here: every event is a
        local re-stitch of the tiles reading its nodes, and the route
        cache loses only the routes through tiles that were actually
        re-stitched (cascades included) — never everything.
        """
        from repro.geometry.point import Point

        started = self.clock()
        touched_tiles: set = set()
        batches = 0
        while self._pending:
            entry = self._pending.pop(0)
            kind = entry[0]
            if kind in ("events", "moved"):
                moved = entry[1].endpoints if kind == "events" else [entry[1]]
                for node in canonical_order(moved):
                    if node in self.graph:
                        report = self._sharded.note_moved(node)
                        touched_tiles.update(report.rebuilt)
            elif kind == "on":
                node = entry[1]
                if node not in self.graph:
                    self.graph.add_node_at(node, Point(*entry[2]))
                    report = self._sharded.note_joined(node)
                    touched_tiles.update(report.rebuilt)
            elif kind == "off":
                node = entry[1]
                if node in self.graph:
                    self.graph.remove_node(node)
                    report = self._sharded.note_left(node)
                    touched_tiles.update(report.rebuilt)
            else:
                raise AssertionError(f"unknown pending entry {entry!r}")
            batches += 1
        tiler = self._sharded.tiler
        stale_routes: set = set()
        for tile in touched_tiles:
            stale_routes.update(tiler.members(tile))
        evicted = self.route_cache.invalidate_nodes(stale_routes)
        self.metrics.incr("route_cache_invalidated", evicted)
        self.metrics.incr("repairs", batches)
        self._repair_cost.update((self.clock() - started) / max(1, batches))
        self._refreeze(self._sharded.result())

    def _refreeze(self, result: WCDSResult) -> None:
        """Swap in a new last-good snapshot of the absorbed topology."""
        self._dirt = 0.0
        started = self.clock()
        self._snapshot = _Snapshot(self.graph.copy(), result)
        self._rebuild_cost.update(self.clock() - started)

    def _apply_entry(self, entry: Tuple):
        kind = entry[0]
        if kind == "events":
            return self._maintained.apply_events(entry[1])
        if kind == "on":
            node, (x, y) = entry[1], entry[2]
            from repro.geometry.point import Point

            return self._maintained.node_on(node, Point(x, y))
        if kind == "off":
            node = entry[1]
            if node in self.graph:
                return self._maintained.node_off(node)
            return None
        raise AssertionError(f"unknown pending entry {entry!r}")

    def _apply_pending_mutations_only(self) -> None:
        """Before a full rebuild: graph mutations (join/leave) must
        still happen; link events already mutated the graph."""
        from repro.geometry.point import Point

        for entry in self._pending:
            if entry[0] == "on" and entry[1] not in self.graph:
                self.graph.add_node_at(entry[1], Point(*entry[2]))
            elif entry[0] == "off" and entry[1] in self.graph:
                self.graph.remove_node(entry[1])
                self._maintained.mis.discard(entry[1])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def dominator(
        self, node: Hashable, *, deadline: Optional[float] = None
    ) -> Response:
        """The clusterhead serving ``node``."""
        return self.submit(Request(op="dominator", node=node, deadline=deadline))

    def route(
        self, src: Hashable, dst: Hashable, *, deadline: Optional[float] = None
    ) -> Response:
        """A walkable backbone path from ``src`` to ``dst``."""
        return self.submit(Request(op="route", src=src, dst=dst, deadline=deadline))

    def backbone(self, *, deadline: Optional[float] = None) -> Response:
        """The current :class:`WCDSResult`."""
        return self.submit(Request(op="backbone", deadline=deadline))

    def broadcast_plan(
        self, source: Hashable, *, deadline: Optional[float] = None
    ) -> Response:
        """The forwarder set of a backbone broadcast from ``source``."""
        return self.submit(Request(op="broadcast_plan", source=source,
                                   deadline=deadline))

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        """Execute one request synchronously and return its response."""
        started = self.clock()
        self.metrics.incr("requests_total")
        self.metrics.incr(f"req_{request.op}")
        deadline = (
            request.deadline
            if request.deadline is not None
            else self.config.default_deadline
        )
        try:
            response = self._dispatch(request, deadline)
        except Exception as failure:  # noqa: BLE001 - a serving boundary
            self.metrics.incr("errors")
            response = Response(request=request, ok=False, error=str(failure))
        elapsed = self.clock() - started
        missed = deadline is not None and elapsed > deadline
        if missed:
            self.metrics.incr("deadline_misses")
            flight_record(
                "deadline_miss",
                op=request.op,
                elapsed=elapsed,
                deadline=deadline,
            )
        if response.stale:
            self.metrics.incr("stale_served")
        self.metrics.observe(request.op, elapsed)
        if self.slo_monitor is not None:
            self.slo_monitor.record(
                request.op, elapsed, ok=response.ok, deadline_missed=missed
            )
        return Response(
            request=response.request,
            ok=response.ok,
            value=response.value,
            stale=response.stale,
            error=response.error,
            elapsed=elapsed,
            deadline_missed=missed,
        )

    def enqueue(self, request: Request) -> bool:
        """Queue a request for :meth:`drain`; ``False`` if rejected."""
        accepted = self.queue.offer(request)
        if not accepted:
            self.metrics.incr("requests_rejected")
        return accepted

    def drain(self) -> List[Response]:
        """Process every queued request in FIFO order."""
        responses = []
        while True:
            request = self.queue.take()
            if request is None:
                return responses
            responses.append(self.submit(request))

    def _dispatch(self, request: Request, deadline: Optional[float]) -> Response:
        if request.op == "join":
            self.join(request.node, request.x, request.y)
            return Response(request=request, ok=True)
        if request.op == "leave":
            self.leave(request.node)
            return Response(request=request, ok=True)
        if request.op == "move":
            self.move(request.node, request.x, request.y)
            return Response(request=request, ok=True)
        if request.op == "churn":
            raise ValueError(
                "churn requests need a mobility model; replay them via "
                "repro.service.workload.replay"
            )
        # Query path: route cache first (valid even with pending work,
        # because ingest invalidates by region), then fresh-or-stale.
        if request.op == "route":
            cached = self.route_cache.get(request.src, request.dst)
            if cached is not None:
                self.metrics.incr("route_cache_hits")
                return Response(request=request, ok=True, value=cached)
            self.metrics.incr("route_cache_misses")
        if self.degraded:
            # Partition-degraded: the topology is known to be split, so
            # refreshing would bake a disconnected backbone into the
            # snapshot.  Serve last-good, marked stale.
            self.metrics.incr("degraded_serves")
            return self._answer(request, stale=self.has_pending_work)
        stale = self.has_pending_work and not self._can_refresh_within(deadline)
        if not stale:
            self.refresh()
        return self._answer(request, stale)

    def _answer(self, request: Request, stale: bool) -> Response:
        snapshot = self._snapshot
        if request.op == "backbone":
            return Response(request=request, ok=True, value=snapshot.result,
                            stale=stale)
        if request.op == "dominator":
            node = request.node
            if node not in snapshot.graph:
                return Response(
                    request=request, ok=False, stale=stale,
                    error=f"unknown node {node!r}",
                )
            return Response(
                request=request, ok=True, stale=stale,
                value=snapshot.router.clusterhead_of(node),
            )
        if request.op == "route":
            for endpoint in (request.src, request.dst):
                if endpoint not in snapshot.graph:
                    return Response(
                        request=request, ok=False, stale=stale,
                        error=f"unknown node {endpoint!r}",
                    )
            path = snapshot.router.route(request.src, request.dst)
            if not stale:
                self.route_cache.put(request.src, request.dst, path)
            return Response(request=request, ok=True, value=path, stale=stale)
        if request.op == "broadcast_plan":
            source = request.source
            if source not in snapshot.graph:
                return Response(
                    request=request, ok=False, stale=stale,
                    error=f"unknown node {source!r}",
                )
            # A stale plan is cached too: it is valid for the last-good
            # snapshot it was computed on, and a refresh replaces both.
            plan = snapshot.plans.get(source)
            if plan is None:
                plan = snapshot.broadcast_plan(source)
                snapshot.plans[source] = plan
                self.metrics.incr("plan_cache_misses")
            else:
                self.metrics.incr("plan_cache_hits")
            return Response(request=request, ok=True, value=plan, stale=stale)
        raise AssertionError(f"unhandled op {request.op!r}")

