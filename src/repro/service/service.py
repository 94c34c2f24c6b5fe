"""The backbone service: a long-lived WCDS answering queries under churn.

One :class:`BackboneService` owns a topology and its Algorithm II
backbone and serves four queries — ``dominator(u)``, ``route(u, v)``,
``backbone()``, ``broadcast_plan(s)`` — while absorbing streaming
topology updates (join / leave / move).

Freshness model
---------------
The backbone is maintained by one engine,
:class:`repro.shard.stitch.ShardedBackbone`, which stays bit-identical
to ``algorithm2_centralized`` under churn.  Updates are cheap to
*ingest*: the graph changes at once, the cached routes through the
tiles reading a touched node are evicted, and the node is queued.  The
next query *absorbs* the queue lazily, in whichever of two exact ways
the measured costs say is cheaper: note each queued node (re-stitching
only the tiles that read it), or construct a fresh ``ShardedBackbone``
when the queued nodes times the per-node note cost exceeds the build
cost.  Routing tables are rebuilt on a frozen copy of the topology, so
the previous tables stay servable: when a request carries a
``deadline`` too small for the estimated pending work, the service
answers from that **last-good** snapshot with ``Response.stale = True``
instead of blocking.

Every request is timed into latency histograms, every refresh into
per-phase histograms (absorb, graph copy, numbering, router build),
and every cache touch, note, re-construction, stale serve, and
rejection is counted (:class:`repro.service.metrics.ServiceMetrics`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.graphs.traversal import is_connected
from repro.graphs.udg import UnitDiskGraph
from repro.mobility.waypoint import LinkEvents
from repro.obs.flightrec import flight_record
from repro.obs.slo import SLOMonitor
from repro.routing.broadcast import SpannerIndex
from repro.routing.clusterhead import ClusterheadRouter
from repro.service.cache import RouteCache
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.requests import Request, RequestQueue, Response
from repro.shard.config import ShardConfig
from repro.shard.stitch import InvalidationReport, ShardedBackbone
from repro.shard.tiler import TileId
from repro.wcds.base import WCDSResult

#: Max entries in the LRU route cache.
ROUTE_CACHE_SIZE = 4096
#: Smoothing factor of the EWMA cost estimates that pick between noting
#: and re-constructing, and decide whether a deadline still fits a
#: synchronous refresh.
COST_EWMA_ALPHA = 0.3

#: What dispatching a request produced: ``(ok, value, stale, error)``.
#: :meth:`BackboneService.submit` builds the request's one
#: :class:`Response` from it, with the timing fields.
_Outcome = Tuple[bool, Any, bool, Optional[str]]
#: The outcome of an update.
_DONE: _Outcome = (True, None, False, None)


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
        #: Nodes touched since the last refresh (already changed in
        #: ``self.graph``, not yet absorbed by the backbone), and nodes
        #: turned off, which stay in ``self.graph`` until then.
        self._pending: Set[Hashable] = set()
        self._leaving: Set[Hashable] = set()
        #: Active partition faults (by signal identity) and the last
        #: known positions of crashed radios, for revival.
        self._active_partitions: set = set()
        self._crashed_positions: Dict[Hashable, Tuple[float, float]] = {}
        self._shard_config = ShardConfig(tile_size=self.config.tile_size)
        self._registry = registry
        #: Measured costs: one ``ShardedBackbone`` construction, noting
        #: one node, and freezing a snapshot.
        self._build_cost = _Ewma()
        self._note_cost = _Ewma()
        self._freeze_cost = _Ewma()
        started = self.clock()
        self._backbone = self._construct()
        self._build_cost.update(self.clock() - started)
        # Until a note is measured, guess one tile's share of the build.
        self._note_cost.update(
            self._build_cost.value / len(self._backbone.tiler.tiles())
        )
        self._refreeze(self._backbone.result())

    def _construct(self) -> ShardedBackbone:
        return ShardedBackbone(
            self.graph, self._shard_config, registry=self._registry
        )

    # ------------------------------------------------------------------
    # Topology updates (ingest is cheap; absorption is lazy)
    # ------------------------------------------------------------------
    def join(self, node: Hashable, x: float, y: float) -> None:
        """A radio turns on at ``(x, y)`` (ignored if it is already on)."""
        position = Point(float(x), float(y))
        if node in self._leaving:
            # Off and on again before a refresh: it never left.
            self._leaving.discard(node)
            self.graph.move_node(node, position)
        elif node not in self.graph:
            self.graph.add_node_at(node, position)
        self._pending.add(node)
        self._ingest([node])
        self.metrics.incr("updates_join")

    def leave(self, node: Hashable) -> None:
        """A radio turns off."""
        seeds = [node]
        if node in self.graph:
            seeds.extend(self.graph.adjacency(node))
            self._leaving.add(node)
        self._ingest(seeds)
        self.metrics.incr("updates_leave")

    def ingest_events(self, events: LinkEvents) -> None:
        """Absorb a step of an external mover (the node positions in
        ``self.graph`` must already reflect it, as the mobility models
        guarantee): the endpoints of its link events and the nodes it
        moved."""
        touched = events.endpoints.union(events.moved)
        if not touched:
            return
        self._pending |= touched
        self._ingest(touched)
        self.metrics.incr("updates_move")
        self.metrics.incr("link_events", len(events.gained) + len(events.lost))

    def move(self, node: Hashable, x: float, y: float) -> None:
        """Move one radio, deriving its link events."""
        gained, lost = self.graph.move_node(node, Point(float(x), float(y)))
        self.ingest_events(LinkEvents(
            gained=tuple((node, other) for other in gained),
            lost=tuple((node, other) for other in lost),
            moved=(node,),
        ))

    # ------------------------------------------------------------------
    # Fault signals (from a chaos run or an external failure detector)
    # ------------------------------------------------------------------
    def fault_signal(self, event) -> None:
        """React to one :mod:`repro.faults` event.

        * :class:`~repro.faults.plan.Crash` — the radio leaves the
          topology; its position is remembered for a later revival.
        * :class:`~repro.faults.plan.Revive` — the radio re-joins at
          its last known position.
        * :class:`~repro.faults.plan.Partition` — while active the
          service serves stale from the last-good snapshot instead of
          refreshing on a topology known to be split; call
          :meth:`heal_signal` when it heals.
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
        return bool(self._active_partitions)

    def _ingest(self, seeds: Iterable[Hashable]) -> None:
        """Count an update and evict the cached routes through the
        tiles reading its touched nodes (a joining node, not yet
        indexed, by the tile of its position): only those routes can
        change, so unrelated cached routes elsewhere in the deployment
        survive."""
        tiler = self._backbone.tiler
        nodes = set(seeds)
        tiles = set()
        for seed in nodes:
            tiles.update(tiler.tiles_reading(seed))
            if seed not in tiler.owner and seed in self.graph:
                tiles.add(tiler.tile_of(self.graph.positions[seed]))
        for tile in tiles:
            nodes.update(tiler.members(tile))
        evicted = self.route_cache.invalidate_nodes(nodes)
        self.metrics.incr("updates_total")
        self.metrics.incr("route_cache_invalidated", evicted)

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def has_pending_work(self) -> bool:
        """Whether queries must absorb updates before answering fresh."""
        return bool(self._pending or self._leaving)

    def _estimated_refresh_cost(self) -> float:
        """Departures are noted, the other pending nodes noted or
        re-constructed, whichever is cheaper, and a snapshot frozen."""
        if not self.has_pending_work:
            return 0.0
        note = self._note_cost.value
        notes = len(self._pending) * note
        absorb = len(self._leaving) * note + min(notes, self._build_cost.value)
        return absorb + self._freeze_cost.value

    def _can_refresh_within(self, deadline: Optional[float]) -> bool:
        return deadline is None or self._estimated_refresh_cost() <= deadline

    def refresh(self) -> None:
        """Absorb all pending updates now and re-freeze the last-good
        snapshot.

        Departures are noted one by one, each right after its node
        leaves the graph, so that no tile is ever renumbered around a
        node the graph no longer holds.  Noting the other pending nodes
        is estimated at their count times the measured per-node note
        cost; when that exceeds the measured build cost (a mover moved
        every node, say) a fresh ``ShardedBackbone`` is constructed
        instead.  Both are exact.  A disconnected topology, which
        Algorithm II's construction rejects, is always noted."""
        if not self.has_pending_work:
            return
        started = self.clock()
        rebuilt: Set[TileId] = set()
        noted = 0
        for node in canonical_order(self._leaving):
            self.graph.remove_node(node)
            rebuilt.update(self._backbone.note_left(node).rebuilt)
            noted += 1
        self._leaving.clear()
        pending, self._pending = self._pending, set()
        stale: Set[Hashable] = set()
        if (
            len(pending) * self._note_cost.value > self._build_cost.value
            and self.graph.num_nodes
            and is_connected(self.graph)
        ):
            built = self.clock()
            replaced, self._backbone = self._backbone, self._construct()
            self._build_cost.update(self.clock() - built)
            self.metrics.incr("rebuilds_full")
            stale = _changed_members(replaced, self._backbone)
            elapsed = built - started
        else:
            for node in canonical_order(pending):
                if node in self.graph:
                    rebuilt.update(self._note(node).rebuilt)
                    noted += 1
            elapsed = self.clock() - started
        if noted:
            self._note_cost.update(elapsed / noted)
            self.metrics.incr("repairs", noted)
        tiler = self._backbone.tiler
        for tile in rebuilt:
            stale.update(tiler.members(tile))
        self.metrics.incr(
            "route_cache_invalidated", self.route_cache.invalidate_nodes(stale)
        )
        self.metrics.observe_phase("absorb", self.clock() - started)
        self._refreeze(self._backbone.result())

    def _note(self, node: Hashable) -> InvalidationReport:
        """Re-stitch around one touched node of the graph: a move if the
        backbone indexes it already, else a join."""
        backbone = self._backbone
        if node in backbone.tiler.owner:
            return backbone.note_moved(node)
        return backbone.note_joined(node)

    def _refreeze(self, result: WCDSResult) -> None:
        """Swap in a new last-good snapshot of the absorbed topology."""
        started = self.clock()
        graph = self.graph.copy()
        copied = self.clock()
        # The router's list scan and the broadcast plans' spanner index
        # share the copy's one numbering.
        graph.numbering()
        numbered = self.clock()
        self._snapshot = _Snapshot(graph, result)
        built = self.clock()
        self.metrics.observe_phase("graph_copy", copied - started)
        self.metrics.observe_phase("numbering", numbered - copied)
        self.metrics.observe_phase("router_build", built - numbered)
        self._freeze_cost.update(built - started)

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
        metrics = self.metrics
        metrics.incr("requests_total")
        metrics.incr(f"req_{request.op}")
        deadline = (
            request.deadline
            if request.deadline is not None
            else self.config.default_deadline
        )
        try:
            ok, value, stale, error = self._dispatch(request, deadline)
        except Exception as failure:  # noqa: BLE001 - a serving boundary
            metrics.incr("errors")
            ok, value, stale, error = False, None, False, str(failure)
        elapsed = self.clock() - started
        missed = deadline is not None and elapsed > deadline
        if missed:
            metrics.incr("deadline_misses")
            flight_record(
                "deadline_miss",
                op=request.op,
                elapsed=elapsed,
                deadline=deadline,
            )
        if stale:
            metrics.incr("stale_served")
        metrics.observe(request.op, elapsed)
        if self.slo_monitor is not None:
            self.slo_monitor.record(
                request.op, elapsed, ok=ok, deadline_missed=missed
            )
        return Response(
            request=request,
            ok=ok,
            value=value,
            stale=stale,
            error=error,
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

    def _dispatch(self, request: Request, deadline: Optional[float]) -> _Outcome:
        if request.op == "join":
            self.join(request.node, request.x, request.y)
            return _DONE
        if request.op == "leave":
            self.leave(request.node)
            return _DONE
        if request.op == "move":
            self.move(request.node, request.x, request.y)
            return _DONE
        if request.op == "churn":
            raise ValueError(
                "churn requests need a mobility model; replay them via "
                "repro.service.workload.replay"
            )
        # Query path: route cache first (valid even with pending work,
        # because ingest evicts the routes through touched tiles), then
        # fresh-or-stale.
        if request.op == "route":
            cached = self.route_cache.get(request.src, request.dst)
            if cached is not None:
                self.metrics.incr("route_cache_hits")
                return True, cached, False, None
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

    def _answer(self, request: Request, stale: bool) -> _Outcome:
        snapshot = self._snapshot
        if request.op == "backbone":
            return True, snapshot.result, stale, None
        if request.op == "dominator":
            node = request.node
            if node not in snapshot.graph:
                return False, None, stale, f"unknown node {node!r}"
            return True, snapshot.router.clusterhead_of(node), stale, None
        if request.op == "route":
            for endpoint in (request.src, request.dst):
                if endpoint not in snapshot.graph:
                    return False, None, stale, f"unknown node {endpoint!r}"
            path = snapshot.router.route(request.src, request.dst)
            if not stale:
                self.route_cache.put(request.src, request.dst, path)
            return True, path, stale, None
        if request.op == "broadcast_plan":
            source = request.source
            if source not in snapshot.graph:
                return False, None, stale, f"unknown node {source!r}"
            # A stale plan is cached too: it is valid for the last-good
            # snapshot it was computed on, and a refresh replaces both.
            plan = snapshot.plans.get(source)
            if plan is None:
                plan = snapshot.broadcast_plan(source)
                snapshot.plans[source] = plan
                self.metrics.incr("plan_cache_misses")
            else:
                self.metrics.incr("plan_cache_hits")
            return True, plan, stale, None
        raise AssertionError(f"unhandled op {request.op!r}")


def _changed_members(old: ShardedBackbone, new: ShardedBackbone) -> Set[Hashable]:
    """The members of every tile whose statuses or connector picks
    differ between two backbones: the nodes whose cached routes a
    re-construction can invalidate."""
    changed: Set[Hashable] = set()
    for tile in set(old.tiler.tiles()).union(new.tiler.tiles()):
        before, after = old.tile_status(tile), new.tile_status(tile)
        if before != after or old.tile_connectors(tile) != new.tile_connectors(tile):
            changed.update(before)
            changed.update(after)
    return changed
