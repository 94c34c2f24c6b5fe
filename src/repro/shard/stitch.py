"""Per-tile Algorithm II with frontier stitching.

Each tile computes Algorithm II on the subgraph induced by its members
(owned + halo) and the tiles exchange only *frontier pins* — the
determined MIS statuses of owned nodes in the boundary band — until
every owned status is settled.  The protocol:

* **Local pass.**  Walk the tile's members in rank order (Algorithm
  II's bare-id ranking).  A node pinned by its owner keeps the pinned
  status.  Otherwise it is OUT if some lower-rank neighbor is known IN;
  IN if its whole unit disk is visible to the tile (so the tile sees
  *every* neighbor) and all lower-rank neighbors are known OUT; and
  UNKNOWN when a lower-rank neighbor is still unsettled.

* **Exchange.**  After a pass, every owned node with a determined
  status is published to the tiles consuming it in their halo.  A tile
  whose pins changed is re-passed.  Determined statuses are exact
  (induction over rank: OUT needs an exact IN witness, IN needs full
  visibility plus exact OUT witnesses), so the fixpoint equals the
  global lexicographically-first MIS — dependency chains that cross
  tiles simply take one exchange round per boundary they cross.

* **Connectors.**  Once statuses are settled, each tile selects
  Algorithm II's additional dominators for the 3-hop MIS pairs *led*
  by its owned nodes (the lower endpoint), with the oracle's exact
  tie-breaking (minimum-id first-hop intermediate).  With a halo of at
  least 3 radii every node and edge relevant to an owned pair is a
  member, so the per-tile choice is bit-identical to the global one.

Churn re-runs this machinery on the affected tiles only: the tiles
that read the moved node (owner + halo consumers, old and new
position) are re-passed, and the wave cascades further only when a
published frontier status actually changed.  A move re-derives only
what it touched: a tile the node stays in patches a copy of its index,
and connectors are re-picked only near the change (see
:meth:`ShardedBackbone._tile_connectors`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    AbstractSet, Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from repro.geometry.point import Point
from repro.graphs.traversal import is_connected
from repro.graphs.udg import UnitDiskGraph
from repro.obs.tracing import get_tracer
from repro.shard.config import ShardConfig
from repro.shard.tiler import TileId, Tiler
from repro.wcds.base import BackboneResult
from repro.wcds.connectors import number_nodes, select_connectors

Node = Hashable
Pair = Tuple[Node, Node, Node]

#: Registry name of the sharded construction.
ALGORITHM_NAME = "wcds-sharded"

#: Hops within which a leader's connector picks read edges and MIS
#: flags (Algorithm II pairs MIS nodes exactly three hops apart).
CONNECTOR_REACH = 3


class _TileIndex:
    """One tile's members, numbered.

    Members are numbered in ascending id order (Algorithm II's ranking),
    so "lower rank" is "lower number"; ``adj`` holds each member's
    neighbours among the members as ascending int tuples, ``lower`` the
    prefix of those below the member itself, and ``visible`` flags the
    members whose whole unit disk the tile sees.  An index is never
    mutated once built (serve-pool replicas hold it): a move of a node
    that stays a member yields a patched copy (:meth:`moved`).
    """

    __slots__ = ("members", "index", "adj", "lower", "visible")

    def __init__(self, graph: UnitDiskGraph, tiler: Tiler, tile: TileId) -> None:
        self.members, self.index, self.adj = number_nodes(
            graph, tiler.members(tile)
        )
        self.lower = [nbrs[: bisect_left(nbrs, i)] for i, nbrs in enumerate(self.adj)]
        seen = tiler.visible_members(tile)
        self.visible = bytearray(node in seen for node in self.members)

    def moved(
        self, graph: UnitDiskGraph, tiler: Tiler, tile: TileId, node: Node
    ) -> Tuple["_TileIndex", Set[int]]:
        """A copy with ``node``'s edges and visibility re-read, and the
        numbers of ``node`` and its old and new neighbours.

        ``node`` must be a member before and after its move, so the
        member set (and the numbering) is unchanged; only the rows of
        those numbers differ.  ``members`` and ``index`` are shared.
        """
        index = self.index
        i = index[node]
        old = self.adj[i]
        new = tuple(sorted(j for j in map(index.get, graph.adjacency(node))
                           if j is not None))
        patched = _TileIndex.__new__(_TileIndex)
        patched.members = self.members
        patched.index = index
        adj = patched.adj = list(self.adj)
        lower = patched.lower = list(self.lower)
        adj[i] = new
        lower[i] = new[: bisect_left(new, i)]
        for j in sorted(set(old).symmetric_difference(new)):
            row = list(adj[j])
            if j in new:
                insort(row, i)
            else:
                row.remove(i)
            adj[j] = tuple(row)
            lower[j] = adj[j][: bisect_left(row, j)]
        patched.visible = bytearray(self.visible)
        patched.visible[i] = tiler.sees_disk(tile, node)
        return patched, {i, *old, *new}


class _Scope(NamedTuple):
    """What a stitch changed in a tile whose numbering it kept: the
    statuses before the stitch, and the nodes whose edges changed."""

    before: Mapping[Node, Optional[bool]]
    changed: AbstractSet[Node]


def _ball(adj: Sequence[Tuple[int, ...]], seeds: Iterable[int], hops: int) -> Set[int]:
    """The numbers within ``hops`` hops of ``seeds`` over ``adj``."""
    ball = set(seeds)
    frontier = list(ball)
    for _ in range(hops):
        reached = [j for i in frontier for j in adj[i] if j not in ball]
        ball.update(reached)
        frontier = reached
    return ball


@dataclass(frozen=True)
class InvalidationReport:
    """What one churn event invalidated and rebuilt.

    ``seed_tiles`` are the tiles that read the churned node (owner plus
    halo consumers, at the old and new position) — the boundary-only
    invalidation set.  ``rebuilt`` is every tile actually re-passed;
    ``cascaded`` is the part of ``rebuilt`` beyond the seeds, reached
    only because a published frontier status changed.  Gentle interior
    churn keeps ``cascaded`` empty — the benchmark gate asserts it.
    """

    node: Node
    event: str
    seed_tiles: Tuple[TileId, ...]
    rebuilt: Tuple[TileId, ...]
    cascaded: Tuple[TileId, ...]
    rounds: int


class ShardedBackbone:
    """The stitched, incrementally-maintained sharded backbone.

    Construction stitches the full tiling; afterwards
    :meth:`apply_move` / :meth:`apply_join` / :meth:`apply_leave` (or
    the ``note_*`` twins when the caller already mutated the graph)
    keep the backbone exact under churn by re-stitching only the
    affected tiles.
    """

    def __init__(
        self,
        graph: UnitDiskGraph,
        config: Optional[ShardConfig] = None,
        *,
        registry=None,
        tracer=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ValueError("Algorithm II requires a non-empty graph")
        if not is_connected(graph):
            raise ValueError("Algorithm II requires a connected graph")
        self.graph = graph
        self.config = config or ShardConfig()
        self.registry = registry
        self.tracer = tracer if tracer is not None else get_tracer()
        self.tiler = Tiler(graph.positions, graph.radius, self.config)
        #: Per-tile pinned statuses: node -> True (MIS) / False, as
        #: published by the node's owner tile.
        self._pins: Dict[TileId, Dict[Node, bool]] = {}
        #: Per-tile member statuses from the last local pass
        #: (True = MIS, False = out, None = unsettled mid-stitch).
        self._status: Dict[TileId, Dict[Node, Optional[bool]]] = {}
        #: Per-tile connector selections ``(u, w, chosen)`` for the
        #: 3-hop pairs led by the tile's owned MIS nodes.
        self._connectors: Dict[TileId, List[Pair]] = {}
        self._indexes: Dict[TileId, _TileIndex] = {}
        self.last_rounds = 0
        with self.tracer.span(
            "shard_build", n=graph.num_nodes, tiles=len(self.tiler.tiles())
        ) as span:
            touched, rounds = self._stitch(
                set(self.tiler.tiles()), "full", {}, frozenset()
            )
            span.set_attr("rounds", rounds)
        if self.registry is not None:
            for tile in self.tiler.tiles():
                self.registry.histogram(
                    "shard_frontier_dominators",
                    "MIS dominators in one tile's frontier band",
                ).observe(
                    sum(
                        1
                        for v in self.tiler.frontier(tile)
                        if self._status[tile].get(v) is True
                    )
                )

    # ------------------------------------------------------------------
    # Stitching
    # ------------------------------------------------------------------
    def tile_index(self, tile: TileId) -> _TileIndex:
        """The live tile's members numbered in ascending id order, with
        ascending neighbour tuples (:func:`number_nodes`).  Renumbered
        when the tile's member set changes, patched when a member moves
        within it, and shared, so callers must not mutate it."""
        cached = self._indexes.get(tile)
        if cached is None:
            cached = _TileIndex(self.graph, self.tiler, tile)
            self._indexes[tile] = cached
            self._count_index("renumbered")
        return cached

    def _count_index(self, how: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.counter(
                "shard_tile_index_total",
                "Tile indexes built, by how: renumbered or patched",
                how=how,
            ).inc(amount)

    def _local_pass(self, tile: TileId) -> Dict[Node, Optional[bool]]:
        """One rank-ordered marking pass over the tile's members."""
        tix = self.tile_index(tile)
        status: List[Optional[bool]] = [None] * len(tix.members)
        pinned = bytearray(len(tix.members))
        index = tix.index
        for v, verdict in self._pins.get(tile, {}).items():
            i = index.get(v)
            if i is not None:
                status[i] = verdict
                pinned[i] = 1
        visible = tix.visible
        for i, lower in enumerate(tix.lower):
            if pinned[i]:
                continue
            unsettled = False
            for j in lower:
                verdict = status[j]
                if verdict is True:
                    status[i] = False
                    break
                if verdict is None:
                    unsettled = True
            else:
                if not unsettled and visible[i]:
                    status[i] = True
        return dict(zip(tix.members, status))

    def _publish(self, tile: TileId) -> Set[TileId]:
        """Push determined owned statuses to consumer tiles; returns
        the consumers whose pins changed."""
        status = self._status[tile]
        dirty: Set[TileId] = set()
        published = 0
        for v, consumers in self.tiler.publishers(tile):
            verdict = status.get(v)
            if verdict is None:
                continue
            for consumer in consumers:
                pins = self._pins.setdefault(consumer, {})
                if pins.get(v) is not verdict:
                    pins[v] = verdict
                    published += 1
                    dirty.add(consumer)
        if self.registry is not None and published:
            self.registry.counter(
                "shard_pins_published_total",
                "Frontier statuses published to consumer tiles",
            ).inc(published)
        return dirty

    def _drop_stale_pins(self, pending: Set[TileId]) -> None:
        """Remove pins that may no longer be exact: pins owned by a
        tile that is itself being re-stitched, and pins of nodes that
        left the deployment.  Pins from converged tiles stay — they are
        exact and give the re-stitch its boundary conditions."""
        for tile in pending:
            pins = self._pins.get(tile)
            if not pins:
                continue
            stale = [
                v
                for v in pins
                if self.tiler.owner.get(v) is None
                or self.tiler.owner[v] in pending
            ]
            for v in stale:
                del pins[v]

    def _stitch(
        self,
        pending: Set[TileId],
        phase: str,
        patched: Mapping[TileId, _TileIndex],
        changed: AbstractSet[Node],
    ) -> Tuple[Set[TileId], int]:
        """Run local passes over ``pending`` tiles, exchanging frontier
        pins, until every owned status is determined.  Returns the set
        of tiles re-passed and the number of exchange rounds.

        A pending tile takes its index from ``patched`` or is
        renumbered; ``changed`` are the nodes whose edges changed in
        the patched tiles.  Tiles reached beyond ``pending`` keep their
        index (their members and edges did not change)."""
        live = set(self.tiler.tiles())
        for tile in [t for t in self._status if t not in live]:
            self._status.pop(tile, None)
            self._connectors.pop(tile, None)
            self._pins.pop(tile, None)
            self._indexes.pop(tile, None)
        pending = {tile for tile in pending if tile in live}
        renumbered = pending - patched.keys()
        for tile in renumbered:
            self._indexes.pop(tile, None)
        self._indexes.update(patched)
        self._drop_stale_pins(pending)
        #: Per re-passed tile, what its connector selection may reuse
        #: (``None``: nothing, select in full).
        scopes: Dict[TileId, Optional[_Scope]] = {}
        touched: Set[TileId] = set()
        rounds = 0
        passes = 0
        # The within-round tile visit order is internally arbitrary (the
        # fixpoint is order-independent by rank induction); under an
        # active race-detector perturbation we shuffle it so that claim
        # is machine-checked, not just asserted.
        from repro.sim.engine import active_perturbation_seed

        exchange_seed = active_perturbation_seed()
        exchange_rng = (
            random.Random(exchange_seed) if exchange_seed is not None else None
        )
        # Each exchange round settles at least the globally minimum-rank
        # unsettled node, so n + 1 rounds always suffice; exceeding the
        # bound means a bug, not a slow instance.
        max_rounds = self.graph.num_nodes + 2
        while pending:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "frontier stitching did not converge "
                    f"(tiles still unsettled: {sorted(pending)})"
                )
            dirty: Set[TileId] = set()
            order = sorted(pending)
            if exchange_rng is not None:
                exchange_rng.shuffle(order)
            for tile in order:
                if tile not in scopes:
                    before = self._status.get(tile)
                    if before is None or tile in renumbered:
                        scopes[tile] = None
                    else:
                        edges = changed if tile in patched else frozenset()
                        scopes[tile] = _Scope(before, edges)
                self._status[tile] = self._local_pass(tile)
                touched.add(tile)
                passes += 1
                dirty |= self._publish(tile)
            # A tile not passed this round was settled when last passed
            # (an unsettled one is pending again), so only ``order`` can
            # hold an unsettled owned node.
            unsettled = {
                tile
                for tile in order
                if any(
                    self._status[tile].get(v) is None
                    for v in self.tiler.owned(tile)
                )
            }
            pending = {tile for tile in dirty | unsettled if tile in live}
        for tile in sorted(touched):
            self._connectors[tile] = self._tile_connectors(tile, scopes[tile])
        self.last_rounds = rounds
        if self.registry is not None:
            self.registry.counter(
                "shard_tile_builds_total",
                "Per-tile local backbone passes",
                phase=phase,
            ).inc(passes)
            self.registry.counter(
                "shard_stitch_rounds_total",
                "Frontier exchange rounds",
                phase=phase,
            ).inc(rounds)
            self.registry.gauge(
                "shard_tiles", "Occupied tiles in the sharded backbone"
            ).set(len(live))
        return touched, rounds

    def _tile_connectors(self, tile: TileId, scope: Optional[_Scope]) -> List[Pair]:
        """Algorithm II connector selection for pairs led by owned MIS
        nodes — the centralized rule on the tile's members (exact by
        the ≥3-radii halo).

        With a ``scope`` only the leaders within three hops (over the
        new edges) of a change are re-selected, and every other pair
        is kept.  The changes are the nodes whose edges changed and
        the members whose MIS flag differs from before the stitch.
        This is exact: a leader's picks read only the edges and MIS
        flags within three hops of it, an edge that changed is
        incident to the moved node, and a node within three hops of
        the moved node before the move is still within three hops of
        one of its old neighbours."""
        tix = self.tile_index(tile)
        status = self._status[tile]
        members = tix.members
        is_mis = bytearray(status[v] is True for v in members)
        owner = self.tiler.owner
        leaders = [
            i for i, v in enumerate(members) if is_mis[i] and owner[v] == tile
        ]
        kept: List[Pair] = []
        if scope is not None:
            index = tix.index
            before = scope.before
            seeds = [index[v] for v in scope.changed if v in index]
            seeds.extend(
                i
                for i, v in enumerate(members)
                if is_mis[i] != (before.get(v) is True)
            )
            if not seeds:
                return self._connectors[tile]
            ball = _ball(tix.adj, seeds, CONNECTOR_REACH)
            leaders = [i for i in leaders if i in ball]
            kept = [p for p in self._connectors[tile] if index[p[0]] not in ball]
        if self.registry is not None:
            self.registry.counter(
                "shard_connector_leaders_total",
                "MIS leaders whose connectors were re-selected, by scope",
                scope="full" if scope is None else "ball",
            ).inc(len(leaders))
        picks = [
            (members[u], members[w], members[v])
            for u, w, v in select_connectors(tix.adj, is_mis, leaders)
        ]
        return sorted(kept + picks) if kept else picks

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> BackboneResult:
        """The stitched backbone as a standard :class:`BackboneResult`.

        Bit-identical to ``algorithm2_centralized`` on the same graph:
        same MIS, same connector choices, tile by tile.
        """
        mis: Set[Node] = set()
        additional: Set[Node] = set()
        pairs: List[Pair] = []
        for tile in self.tiler.tiles():
            status = self._status[tile]
            for v in self.tiler.owned(tile):
                if status.get(v) is True:
                    mis.add(v)
            pairs.extend(self._connectors.get(tile, ()))
        for _, _, chosen in pairs:
            additional.add(chosen)
        additional -= mis
        return BackboneResult(
            dominators=frozenset(mis | additional),
            mis_dominators=frozenset(mis),
            additional_dominators=frozenset(additional),
            algorithm=ALGORITHM_NAME,
            meta={
                "tiles": len(self.tiler.tiles()),
                "stitch_rounds": self.last_rounds,
                "pairs_covered": sorted(pairs),
            },
        )

    def tile_status(self, tile: TileId) -> Dict[Node, Optional[bool]]:
        """The tile's member statuses (read-only copy)."""
        return dict(self._status.get(tile, {}))

    def tile_connectors(self, tile: TileId) -> List[Pair]:
        """The tile's connector picks ``(u, w, chosen)`` (copy)."""
        return list(self._connectors.get(tile, ()))

    def tile_backbone(self, tile: TileId) -> Set[Node]:
        """Backbone members visible to one tile (for its replica)."""
        status = self._status.get(tile, {})
        members = {v for v, s in status.items() if s is True}
        for u, w, chosen in self._connectors.get(tile, ()):
            members.add(chosen)
        # Connectors chosen by *other* tiles for pairs whose nodes this
        # tile can see are collected by the serving layer from the
        # merged result; the per-tile view only needs its own picks.
        return members

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def apply_move(self, node: Node, new_position: Point) -> InvalidationReport:
        """Move a node (mutating the graph) and re-stitch locally."""
        self.graph.move_node(node, new_position)
        return self.note_moved(node)

    def apply_join(self, node: Node, position: Point) -> InvalidationReport:
        """Add a node (mutating the graph) and re-stitch locally."""
        self.graph.add_node_at(node, position)
        return self.note_joined(node)

    def apply_leave(self, node: Node) -> InvalidationReport:
        """Remove a node (mutating the graph) and re-stitch locally."""
        seeds = self.tiler.tiles_reading(node)
        self.graph.remove_node(node)
        return self._after_churn(node, "leave", seeds, self.tiler.on_node_removed(node))

    def note_moved(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already moved ``node`` in the
        graph (the tiler still holds the old indexing).

        A tile ``node`` stays a member of keeps its numbering and gets
        a patched copy of its index; a tile it enters or leaves is
        renumbered."""
        before = set(self.tiler.tiles_reading(node))
        self.tiler.on_node_moved(node)
        after = set(self.tiler.tiles_reading(node))
        patched: Dict[TileId, _TileIndex] = {}
        changed: Set[Node] = {node}
        for tile in sorted(before & after):
            old = self._indexes.get(tile)
            if old is None:
                continue
            index, rows = old.moved(self.graph, self.tiler, tile, node)
            patched[tile] = index
            changed.update(index.members[j] for j in rows)
        self._count_index("patched", len(patched))
        seeds = before | after
        return self._after_churn(
            node, "move", tuple(sorted(seeds)), seeds, patched, changed
        )

    def note_joined(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already added ``node``."""
        affected = self.tiler.on_node_added(node)
        return self._after_churn(node, "join", tuple(sorted(affected)), affected)

    def note_left(self, node: Node) -> InvalidationReport:
        """Re-stitch after the caller already removed ``node``."""
        seeds = self.tiler.tiles_reading(node)
        return self._after_churn(node, "leave", seeds, self.tiler.on_node_removed(node))

    def _after_churn(
        self,
        node: Node,
        event: str,
        seeds,
        pending: Set[TileId],
        patched: Mapping[TileId, _TileIndex] = {},
        changed: AbstractSet[Node] = frozenset(),
    ) -> InvalidationReport:
        with self.tracer.span("shard_invalidate", event=event) as span:
            touched, rounds = self._stitch(set(pending), "churn", patched, changed)
            seed_tuple = tuple(sorted(set(seeds)))
            cascaded = tuple(sorted(touched - set(seed_tuple)))
            span.set_attr("seed_tiles", len(seed_tuple))
            span.set_attr("rebuilt", len(touched))
            span.set_attr("cascaded", len(cascaded))
        if self.registry is not None:
            self.registry.counter(
                "shard_invalidations_total",
                "Churn events absorbed by boundary-only re-stitching",
                event=event,
            ).inc()
            if cascaded:
                self.registry.counter(
                    "shard_cascade_tiles_total",
                    "Tiles re-stitched beyond the churn seeds",
                ).inc(len(cascaded))
        return InvalidationReport(
            node=node,
            event=event,
            seed_tiles=seed_tuple,
            rebuilt=tuple(sorted(touched)),
            cascaded=cascaded,
            rounds=rounds,
        )


def build_sharded(
    graph: UnitDiskGraph,
    config: Optional[ShardConfig] = None,
    *,
    registry=None,
    tracer=None,
) -> BackboneResult:
    """Build Algorithm II's backbone by tiling and stitching.

    A drop-in twin of ``algorithm2_centralized`` — same inputs, same
    preconditions (non-empty, connected), identical output sets — that
    computes per tile and exchanges only frontier state.
    """
    return ShardedBackbone(
        graph, config, registry=registry, tracer=tracer
    ).result()
