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
  UNKNOWN when a lower-rank neighbor is still unsettled.  A tile keeps
  its statuses while its numbering lives, so a later pass re-evaluates
  only what changed: members whose pin or edges changed, and members
  above a neighbour whose status flipped, in ascending rank.

* **Exchange.**  After a pass, an owned node whose determined status
  flipped is published to the tiles consuming it in their halo (every
  determined status after a full pass, and once the tiler replaced the
  tile's publisher list).  A tile whose pins changed is re-passed.
  A pin stays until its owner publishes a different verdict, so a
  re-stitch may start from pins that a move made wrong; the fixpoint is
  still the global lexicographically-first MIS, by induction over rank
  (see :meth:`ShardedBackbone._stitch`).  Dependency chains that cross
  tiles take one exchange round per boundary they cross.

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
and connectors are re-picked only by the leaders whose scan reads an
edge the move changed or a flag the stitch flipped (see
:func:`_connector_ball`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import (
    AbstractSet, Dict, Hashable, Iterable, KeysView, List, Mapping, Optional,
    Sequence, Set, Tuple, TypeVar,
)

from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.graphs.traversal import is_connected
from repro.graphs.udg import UnitDiskGraph
from repro.obs.tracing import get_tracer
from repro.shard.config import ShardConfig
from repro.shard.tiler import TileId, Tiler
from repro.wcds.base import BackboneResult
from repro.wcds.connectors import (
    MisRows, Rows, mis_rows, number_nodes, three_hop_relays,
)

Node = Hashable
Pair = Tuple[Node, Node, Node]
#: A leader's key: its number in the tile, or its id.
Leader = TypeVar("Leader")

#: Registry name of the sharded construction.
ALGORITHM_NAME = "wcds-sharded"

#: Hops within which a leader's connector picks read MIS flags, and
#: within which they read MIS rows: Algorithm II pairs MIS nodes
#: exactly three hops apart, and :func:`three_hop_relays` reads the
#: MIS neighbours of the nodes within two hops of a leader (whole
#: adjacency rows only within one) and so the flags of the nodes
#: within three.
FLAG_REACH = 3
ROW_REACH = 2


class _TileIndex:
    """One tile's members, numbered.

    Members are numbered in ascending id order (Algorithm II's ranking),
    so "lower rank" is "lower number"; ``adj`` holds each member's
    neighbours among the members as ascending int tuples, ``lower`` the
    prefix of those below the member itself, and ``visible`` flags the
    members whose whole unit disk the tile sees.  A move of a node that
    stays a member patches the index in place (:meth:`moved`).
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
    ) -> Tuple[int, List[int]]:
        """Re-read ``node``'s edges and visibility in place; returns the
        numbers whose rows changed: ``node``'s and, ascending, those of
        the neighbours it gained or lost.

        ``node`` must be a member before and after its move, so the
        member set (and the numbering) is unchanged; only the rows of
        those numbers differ.
        """
        index = self.index
        i = index[node]
        adj = self.adj
        lower = self.lower
        old = adj[i]
        new = tuple(sorted(j for j in map(index.get, graph.adjacency(node))
                           if j is not None))
        adj[i] = new
        lower[i] = new[: bisect_left(new, i)]
        gained_or_lost = sorted(set(old).symmetric_difference(new))
        for j in gained_or_lost:
            row = list(adj[j])
            if j in new:
                insort(row, i)
            else:
                row.remove(i)
            adj[j] = tuple(row)
            lower[j] = adj[j][: bisect_left(row, j)]
        self.visible[i] = tiler.sees_disk(tile, node)
        return i, gained_or_lost


class _Tile:
    """One live tile's stitch state, kept between stitches.

    ``status`` is aligned with ``index``'s numbering and lives as long as
    it; ``index`` is ``None`` from the moment the tile must be
    renumbered until its next (full) pass.  ``pins`` hold the verdicts
    the owners published for halo members; ``dirty`` the members whose
    pin or edges changed since the last pass; ``waiting`` the numbers of
    owned members with no status yet; ``connectors`` the pairs ``(u, w,
    chosen)`` by the number of their leader ``u``."""

    __slots__ = ("index", "status", "pins", "dirty", "waiting", "connectors")

    def __init__(self) -> None:
        self.index: Optional[_TileIndex] = None
        self.status: List[Optional[bool]] = []
        self.pins: Dict[Node, bool] = {}
        self.dirty: Set[Node] = set()
        self.waiting: Set[int] = set()
        self.connectors: Dict[int, List[Pair]] = {}


def _ball(
    adj: Sequence[Tuple[int, ...]], seeds: Sequence[Iterable[int]]
) -> Set[int]:
    """The numbers within ``k`` hops of ``seeds[k]`` over ``adj``, for
    every ``k``: one BFS, where the seeds of each reach join the
    frontier once it is as many hops from the farthest-reaching ones."""
    ball: Set[int] = set()
    frontier: Set[int] = set()
    for reach in range(len(seeds) - 1, -1, -1):
        fresh = set(seeds[reach]) - ball
        ball |= fresh
        frontier |= fresh
        if reach:
            frontier = {j for i in frontier for j in adj[i]} - ball
            ball |= frontier
    return ball


def _connector_ball(
    adj: Sequence[Tuple[int, ...]],
    flipped: Iterable[int],
    moved: Optional[int] = None,
    ends: Sequence[int] = (),
    mis: AbstractSet[int] = frozenset(),
) -> Set[int]:
    """The members whose connector picks may differ after a stitch
    that flipped the MIS flags of ``flipped`` and, when a node moved
    within the tile, changed its edges: ``moved`` is its number,
    ``ends`` the neighbours it gained or lost, and ``mis`` holds those
    of ``moved`` and ``ends`` in the MIS before the stitch or after.

    A leader ``u``'s scan (:func:`three_hop_relays`) reads every edge
    with an endpoint in ``N[u]``, the MIS rows (MIS neighbours) of the
    nodes within :data:`ROW_REACH` hops and so the flags of the nodes
    within :data:`FLAG_REACH`.  A changed edge ``{moved, g}`` is in the
    first set when ``moved`` or ``g`` is within one hop of ``u``, and
    in an MIS row read when one endpoint is within two hops and the
    other is in the MIS before the stitch (the old row held it) or
    after (the new one does).  Whether ``u`` leads at all reads its
    flag and its owner, which only ``moved`` can change.  The ball is
    every member that close to a changed edge, within three hops of a
    flipped flag, or ``moved``, over the new edges.  A leader outside
    it reads only values the stitch left as they were, so its scan
    over the new state follows the steps of its scan over the old one,
    and its kept picks are exact."""
    seeds: List[Iterable[int]] = [()] * (FLAG_REACH + 1)
    seeds[FLAG_REACH] = flipped
    if moved is not None:
        seeds[0] = [moved]
        if ends:
            seeds[ROW_REACH - 1] = [moved, *ends]
            far = list(ends) if moved in mis else []
            if not mis.isdisjoint(ends):
                far.append(moved)
            seeds[ROW_REACH] = far
    return _ball(adj, seeds)


def _count_picks(
    delta: Dict[Node, int],
    old: Mapping[Leader, List[Pair]],
    new: Mapping[Leader, List[Pair]],
    leaders: Iterable[Leader],
) -> None:
    """Add to ``delta`` the claim changes of re-selecting ``leaders``:
    for each leader whose pairs differ, -1 per node its ``old`` pairs
    chose and +1 per node its ``new`` pairs choose."""
    for u in leaders:
        before, after = old.get(u, ()), new.get(u, ())
        if before != after:
            for _, _, chosen in before:
                delta[chosen] = delta.get(chosen, 0) - 1
            for _, _, chosen in after:
                delta[chosen] = delta.get(chosen, 0) + 1


@dataclass(frozen=True)
class InvalidationReport:
    """What one churn event invalidated and rebuilt.

    ``seed_tiles`` are the tiles that read the churned node (owner plus
    halo consumers, at the old and new position) — the boundary-only
    invalidation set.  ``rebuilt`` is every tile actually re-passed;
    ``cascaded`` is the part of ``rebuilt`` beyond the seeds, reached
    only because a published frontier status changed, possibly only
    for a while: a status computed from a kept pin the change made
    wrong is published and then corrected, so a cascaded tile's final
    pins may equal its pins before.  Gentle interior churn keeps
    ``cascaded`` empty — the benchmark gate asserts it.  ``flipped``
    are the nodes whose membership changed, in canonical order: those
    that entered or left the MIS or the backbone (a node that left the
    deployment leaves both).
    """

    node: Node
    event: str
    seed_tiles: Tuple[TileId, ...]
    rebuilt: Tuple[TileId, ...]
    cascaded: Tuple[TileId, ...]
    rounds: int
    flipped: Tuple[Node, ...]


class ShardedBackbone:
    """The stitched, incrementally-maintained sharded backbone.

    Construction stitches the full tiling; afterwards
    :meth:`apply_move` / :meth:`apply_join` / :meth:`apply_leave` (or
    the ``note_*`` twins when the caller already mutated the graph)
    keep the backbone exact under churn by re-stitching only the
    affected tiles.  It alone holds the global membership
    (:meth:`membership`), which each stitch updates from what it
    changed; each churn report names the nodes that flipped.
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
        self._tiles: Dict[TileId, _Tile] = {}
        #: The global membership (:meth:`membership`), which every
        #: stitch updates from what it changed: the MIS, and per
        #: dominator its claims, one for MIS membership and one per
        #: pair picking it as a connector (leaders in two tiles may
        #: pick the same node).  Dicts for their read-only key views.
        self._mis: Dict[Node, None] = {}
        self._claims: Dict[Node, int] = {}
        self.last_rounds = 0
        with self.tracer.span(
            "shard_build", n=graph.num_nodes, tiles=len(self.tiler.tiles())
        ) as span:
            _, rounds, _ = self._stitch(
                set(self.tiler.tiles()), "full", {}, frozenset()
            )
            span.set_attr("rounds", rounds)
        if self.registry is not None:
            for tile in self.tiler.tiles():
                index = self.tile_index(tile).index
                status = self._tiles[tile].status
                self.registry.histogram(
                    "shard_frontier_dominators",
                    "MIS dominators in one tile's frontier band",
                ).observe(
                    sum(
                        1
                        for v in self.tiler.frontier(tile)
                        if status[index[v]] is True
                    )
                )

    # ------------------------------------------------------------------
    # Stitching
    # ------------------------------------------------------------------
    def tile_index(self, tile: TileId) -> _TileIndex:
        """The live tile's members numbered in ascending id order, with
        ascending neighbour tuples (:func:`number_nodes`).  Renumbered
        when the tile's member set changes, patched in place when a
        member moves within it; callers must not mutate it."""
        state = self._tiles[tile]
        if state.index is None:
            state.index = _TileIndex(self.graph, self.tiler, tile)
            self._count_index("renumbered")
        return state.index

    def _count_index(self, how: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.counter(
                "shard_tile_index_total",
                "Tile indexes built, by how: renumbered or patched",
                how=how,
            ).inc(amount)

    def _local_pass(self, tile: TileId) -> Optional[Dict[int, Optional[bool]]]:
        """Bring the tile's statuses up to date with its pins and index.

        Returns the members whose status changed, by number, with their
        status before the pass; ``None`` after a full pass of a tile
        that was just (re)numbered, whose statuses are all new."""
        state = self._tiles[tile]
        if state.index is None:
            self._full_pass(tile, state)
            return None
        return self._repass(tile, state, state.index)

    def _full_pass(self, tile: TileId, state: _Tile) -> None:
        """One rank-ordered marking pass over all of the tile's members."""
        tix = self.tile_index(tile)
        status: List[Optional[bool]] = [None] * len(tix.members)
        pinned = bytearray(len(tix.members))
        index = tix.index
        for v, verdict in state.pins.items():
            i = index.get(v)
            if i is not None:
                status[i] = verdict
                pinned[i] = 1
        visible = tix.visible
        members = tix.members
        owner = self.tiler.owner
        waiting: Set[int] = set()
        for i, lower in enumerate(tix.lower):
            if pinned[i]:
                continue
            unsettled = False
            for j in lower:
                known = status[j]
                if known is True:
                    status[i] = False
                    break
                if known is None:
                    unsettled = True
            else:
                if not unsettled:
                    if visible[i]:
                        status[i] = True
                elif owner[members[i]] == tile:
                    waiting.add(i)
        state.status = status
        state.waiting = waiting
        state.dirty.clear()

    def _repass(
        self, tile: TileId, state: _Tile, tix: _TileIndex
    ) -> Dict[int, Optional[bool]]:
        """Re-evaluate the dirty members, and every member above one
        whose status flips, in ascending rank.

        Exact: a member's status in a pass is a function of its pin,
        its visibility and the statuses of its lower neighbours, and the
        previous pass left every status equal to that function's value;
        so only a member whose pin or row changed, or one of whose lower
        neighbours flipped, can change."""
        index = tix.index
        heap = [i for i in map(index.get, state.dirty) if i is not None]
        state.dirty.clear()
        flips: Dict[int, Optional[bool]] = {}
        if not heap:
            return flips
        heapify(heap)
        queued = set(heap)
        status = state.status
        pins = state.pins
        members, adj, lower, visible = tix.members, tix.adj, tix.lower, tix.visible
        waiting = state.waiting
        owner = self.tiler.owner
        while heap:
            i = heappop(heap)
            v = members[i]
            verdict = pins.get(v)
            if verdict is None:
                unsettled = False
                for j in lower[i]:
                    known = status[j]
                    if known is True:
                        verdict = False
                        break
                    if known is None:
                        unsettled = True
                else:
                    if not unsettled and visible[i]:
                        verdict = True
            old = status[i]
            if verdict is old:
                continue
            status[i] = verdict
            flips[i] = old
            if old is None:
                waiting.discard(i)
            elif verdict is None and owner[v] == tile:
                waiting.add(i)
            for j in adj[i][len(lower[i]):]:
                if j not in queued:
                    queued.add(j)
                    heappush(heap, j)
        return flips

    def _publish(
        self, tile: TileId, flips: Optional[Mapping[int, Optional[bool]]]
    ) -> Set[TileId]:
        """Push the owned statuses that ``flips`` determined to consumer
        tiles (every determined owned status when ``flips`` is
        ``None``); returns the consumers whose pins changed."""
        tix = self.tile_index(tile)
        status = self._tiles[tile].status
        index = tix.index
        publishers: Iterable[Tuple[Node, Tuple[TileId, ...]]]
        if flips is None:
            publishers = self.tiler.publishers(tile)
        else:
            members = tix.members
            owner = self.tiler.owner
            consumers = self.tiler.consumers
            publishers = [
                (v, consumers(v))
                for v in [members[i] for i in flips if status[i] is not None]
                if owner[v] == tile
            ]
        tiles = self._tiles
        dirty: Set[TileId] = set()
        published = 0
        for v, consumers_of_v in publishers:
            verdict = status[index[v]]
            if verdict is None:
                continue
            for consumer in consumers_of_v:
                reader = tiles[consumer]
                if reader.pins.get(v) is not verdict:
                    reader.pins[v] = verdict
                    reader.dirty.add(v)
                    published += 1
                    dirty.add(consumer)
        if self.registry is not None and published:
            self.registry.counter(
                "shard_pins_published_total",
                "Frontier statuses published to consumer tiles",
            ).inc(published)
        return dirty

    def _install(self, tile: TileId, state: _Tile, changed: AbstractSet[Node]) -> None:
        """Take in the tile's index patched in place (same numbering):
        the members in ``changed`` are marked dirty, and re-counted as
        waiting if they lack a status and the tile now owns them."""
        index = self.tile_index(tile)
        status = state.status
        owner = self.tiler.owner
        for v in changed:
            i = index.index.get(v)
            if i is None:
                continue
            state.dirty.add(v)
            if status[i] is None:
                if owner.get(v) == tile:
                    state.waiting.add(i)
                else:
                    state.waiting.discard(i)

    def _stitch(
        self,
        pending: Set[TileId],
        phase: str,
        patched: Mapping[TileId, Tuple[int, Sequence[int]]],
        changed: AbstractSet[Node],
    ) -> Tuple[Set[TileId], int, Set[Node]]:
        """Run local passes over ``pending`` tiles, exchanging frontier
        pins, until every owned status is determined; then re-select
        the connectors near what changed and update the global
        membership.  Returns the set of tiles re-passed, the number of
        exchange rounds and the nodes whose membership flipped.

        A pending tile in ``patched`` keeps its index, patched in
        place; any other is renumbered.  ``patched`` maps such a tile to
        the moved node's number and those of the neighbours it gained or
        lost there (:meth:`_TileIndex.moved`).  ``changed`` are the
        churned node and the nodes whose edges changed in the patched
        tiles.
        Tiles reached beyond ``pending`` keep their index (their members
        and edges did not change).

        Why the fixpoint is the global lexicographically-first MIS,
        although a re-stitch keeps pins the change may have made wrong.
        Call a node *final* when its owner's status for it is its MIS
        status and every tile holding it in its halo pins that status.
        A pin changes only when its owner publishes, and an owner
        publishes every status a pass flips to a determined value, and
        every determined status once the tiler replaced its publisher
        list (after its pass in round 1, or before round 1 if it is not
        pending).  So from round 2 on every pin holds its owner's last
        determined status.  Take the lowest-ranked node ``u`` that is
        not final when a round starts: its lower neighbours are final
        and stay so.  Had the owner's last pass read ``u``'s current
        inputs, it would have found ``u``'s MIS status and published
        it; so an input changed since (a pin, an edge, the numbering),
        which made the owner pending, and its pass in this round makes
        ``u`` final.  Each round finalizes at least one node, and when
        no tile is pending every node is final."""
        live = set(self.tiler.tiles())
        tiles = self._tiles
        #: Claim changes of this stitch: a retired tile's picks go.
        delta: Dict[Node, int] = {}
        for tile in [t for t in tiles if t not in live]:
            retired = tiles.pop(tile).connectors
            _count_picks(delta, retired, {}, retired)
        pending = {tile for tile in pending if tile in live}
        for tile in pending:
            state = tiles.get(tile)
            if state is None:
                state = tiles[tile] = _Tile()
            if tile in patched:
                self._install(tile, state, changed)
            else:
                state.index = None
        #: Tiles whose next publish must be full (the tiler replaced
        #: their publisher list, so a tile may have started reading
        #: one of their nodes); one not pending publishes now.
        full = self.tiler.take_replaced_publishers() & live
        for tile in sorted(full - pending):
            pending |= self._publish(tile, None)
        #: Per re-passed tile, the members whose status changed and
        #: their status before the stitch (``None``: renumbered, its
        #: connectors are selected in full).
        scopes: Dict[TileId, Optional[Dict[int, Optional[bool]]]] = {}
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
        # Each exchange round finalizes at least one node (see above),
        # so n + 1 rounds always suffice; exceeding the bound means a
        # bug, not a slow instance.
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
                flips = self._local_pass(tile)
                if flips is None or tile not in scopes:
                    scopes[tile] = flips
                else:
                    earlier = scopes[tile]
                    if earlier is not None:
                        # A status from before the stitch wins.
                        scopes[tile] = {**flips, **earlier}
                touched.add(tile)
                passes += 1
                if tile in full:
                    full.discard(tile)
                    flips = None
                dirty |= self._publish(tile, flips)
            # A tile not passed this round was settled when last passed
            # (an unsettled one is pending again), so only ``order`` can
            # hold an unsettled owned node.
            waiting = {tile for tile in order if tiles[tile].waiting}
            pending = {tile for tile in dirty | waiting if tile in live}
        #: The MIS status, read at the owner tile, of every node whose
        #: status may have changed: the owned members of a renumbered
        #: tile, those whose flag a pass flipped, and nodes that left.
        #: A moved node needs no entry of its own: its new owner held
        #: its exact status before the stitch (a pin, or its own), so
        #: its membership changed only if a pass there flipped it.
        owner = self.tiler.owner
        mis_now: Dict[Node, bool] = {v: False for v in changed if v not in owner}
        for tile in sorted(touched):
            state = tiles[tile]
            scope = scopes[tile]
            tix = self.tile_index(tile)
            status = state.status
            ball: Optional[Set[int]] = None
            flipped: Iterable[int] = range(len(status))
            if scope is not None:
                flipped = [
                    i for i, old in scope.items()
                    if (old is True) != (status[i] is True)
                ]
                if tile in patched:
                    moved, ends = patched[tile]
                    # In the MIS before the stitch or after.
                    mis = {
                        j for j in (moved, *ends)
                        if status[j] is True or scope.get(j) is True
                    }
                    ball = _connector_ball(tix.adj, flipped, moved, ends, mis)
                else:
                    ball = _connector_ball(tix.adj, flipped)
            members = tix.members
            for i in flipped:
                if owner[members[i]] == tile:
                    mis_now[members[i]] = status[i] is True
            old = state.connectors
            new = state.connectors = self._tile_connectors(tile, ball)
            if ball is None:
                # Renumbered: match the leaders by id, not by number.
                old_led = {pairs[0][0]: pairs for pairs in old.values()}
                new_led = {pairs[0][0]: pairs for pairs in new.values()}
                _count_picks(delta, old_led, new_led, old_led.keys() | new_led.keys())
            elif new is not old:
                # Only the leaders in the ball were re-selected.
                _count_picks(delta, old, new, (old.keys() | new.keys()) & ball)
        flipped_nodes = self._update_membership(mis_now, delta)
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
        return touched, rounds, flipped_nodes

    def _update_membership(
        self, mis_now: Mapping[Node, bool], delta: Dict[Node, int]
    ) -> Set[Node]:
        """Bring the global membership up to date after a stitch: the
        MIS status of each node in ``mis_now``, then the claim changes,
        MIS ones included.  Returns the nodes that entered or left the
        MIS or the backbone."""
        mis, claims = self._mis, self._claims
        flipped: Set[Node] = set()
        for v, now in mis_now.items():
            if now is not (v in mis):
                flipped.add(v)
                if now:
                    mis[v] = None
                    delta[v] = delta.get(v, 0) + 1
                else:
                    del mis[v]
                    delta[v] = delta.get(v, 0) - 1
        for v, change in delta.items():
            if change:
                before = claims.get(v, 0)
                after = before + change
                if after:
                    claims[v] = after
                else:
                    del claims[v]
                if not before or not after:
                    flipped.add(v)
        return flipped

    def _tile_connectors(
        self, tile: TileId, ball: Optional[AbstractSet[int]]
    ) -> Dict[int, List[Pair]]:
        """Algorithm II connector selection for pairs led by owned MIS
        nodes — the centralized rule on the tile's members (exact by
        the ≥3-radii halo) — by leader number.

        With a ``ball`` (:func:`_connector_ball`) only the leaders in it
        are re-selected, reading MIS rows only around them, and every
        other leader keeps its pairs; ``None`` selects in full."""
        state = self._tiles[tile]
        tix = self.tile_index(tile)
        status = state.status
        members = tix.members
        owner = self.tiler.owner
        connectors: Dict[int, List[Pair]] = {}
        rows: Rows
        if ball is None:
            leaders = [
                i for i, s in enumerate(status) if s is True and owner[members[i]] == tile
            ]
            rows = mis_rows(tix.adj, status)
        else:
            if not ball:
                return state.connectors
            leaders = sorted(
                i for i in ball if status[i] is True and owner[members[i]] == tile
            )
            rows = MisRows(tix.adj, status)
            connectors = {
                u: pairs for u, pairs in state.connectors.items() if u not in ball
            }
        if self.registry is not None:
            self.registry.counter(
                "shard_connector_leaders_total",
                "MIS leaders whose connectors were re-selected, by scope",
                scope="full" if ball is None else "ball",
            ).inc(len(leaders))
        for u, w, v, _ in three_hop_relays(tix.adj, rows, leaders):
            pair = (members[u], members[w], members[v])
            pairs = connectors.get(u)
            if pairs is None:
                connectors[u] = [pair]
            else:
                pairs.append(pair)
        return connectors

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> BackboneResult:
        """The stitched backbone as a standard :class:`BackboneResult`.

        Bit-identical to ``algorithm2_centralized`` on the same graph:
        same MIS, same connector choices, tile by tile.  The sets are
        frozen from :meth:`membership`; the pairs are read per tile.
        """
        mis = frozenset(self._mis)
        dominators = frozenset(self._claims)
        pairs: List[Pair] = []
        for tile in self.tiler.tiles():
            for led in self._tiles[tile].connectors.values():
                pairs.extend(led)
        return BackboneResult(
            dominators=dominators,
            mis_dominators=mis,
            additional_dominators=dominators - mis,
            algorithm=ALGORITHM_NAME,
            meta={
                "tiles": len(self.tiler.tiles()),
                "stitch_rounds": self.last_rounds,
                "pairs_covered": sorted(pairs),
            },
        )

    def membership(self) -> Tuple[KeysView[Node], KeysView[Node]]:
        """The global MIS and backbone (every dominator) as live,
        read-only set views; each stitch updates them in place."""
        return self._mis.keys(), self._claims.keys()

    def tile_status(self, tile: TileId) -> Dict[Node, Optional[bool]]:
        """The tile's member statuses (read-only copy)."""
        state = self._tiles.get(tile)
        if state is None or state.index is None:
            return {}
        return dict(zip(state.index.members, state.status))

    def tile_connectors(self, tile: TileId) -> List[Pair]:
        """The tile's connector picks ``(u, w, chosen)``, sorted (copy)."""
        state = self._tiles.get(tile)
        if state is None:
            return []
        connectors = state.connectors
        return [pair for u in sorted(connectors) for pair in connectors[u]]

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

        A tile ``node`` stays a member of keeps its numbering and has
        its index patched in place; a tile it enters or leaves is
        renumbered."""
        before = set(self.tiler.tiles_reading(node))
        self.tiler.on_node_moved(node)
        after = set(self.tiler.tiles_reading(node))
        patched: Dict[TileId, Tuple[int, Sequence[int]]] = {}
        changed: Set[Node] = {node}
        for tile in sorted(before & after):
            index = self._tiles[tile].index
            if index is None:
                continue
            _, ends = patched[tile] = index.moved(self.graph, self.tiler, tile, node)
            changed.update(index.members[j] for j in ends)
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
        patched: Mapping[TileId, Tuple[int, Sequence[int]]] = {},
        changed: AbstractSet[Node] = frozenset(),
    ) -> InvalidationReport:
        with self.tracer.span("shard_invalidate", event=event) as span:
            # A tile holds pins only for its halo: the node's pin goes
            # from every tile that stopped reading it as halo (it left
            # the deployment or the halo) or now owns it.  Every other
            # pin stays until its owner publishes a different verdict.
            readers = self.tiler.consumers(node)
            for tile in pending:
                state = self._tiles.get(tile)
                if (
                    state is not None
                    and tile not in readers
                    and state.pins.pop(node, None) is not None
                ):
                    state.dirty.add(node)
            touched, rounds, flipped = self._stitch(
                set(pending), "churn", patched, {node, *changed}
            )
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
            flipped=tuple(canonical_order(flipped)),
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
