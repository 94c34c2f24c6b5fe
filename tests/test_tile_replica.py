"""The numbered tile replica against the replica it replaced.

A serve-pool replica answers ``route`` (minimum-hop path over black
edges, the edges with a backbone endpoint), ``dominator`` and
``member`` for one tile.  It used to hold dict-of-sets adjacency and
sort every popped node's neighbours with ``canonical_order``; it now
numbers the members once, in ascending id order, and routes by an int
BFS over per-node tuples that already leave out the non-black edges.
The old class lives on here as the oracle: both ways of building the
new one (from a node numbering in the parent, and from shared position
rows in a worker) must give the same answer to every query, and a
worker pool must keep answering exactly like an inline pool while
nodes move, and every live replica, loaded in full or patched in place
after a move, must stay what a fresh load would build.  A replica
keeps a few per-source route BFS trees and resumes them: the answers
must stay the oracle's through repeated sources and in-place patches.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs import jittered_grid
from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.shard import ShardConfig, SharedPositions, ShardServePool
from repro.shard.pool import (
    _ROUTE_TREES,
    _patch_from_shared,
    _replica_from_shared,
    _serve_tiles,
    _TileReplica,
)
from repro.wcds.connectors import number_nodes
from repro.workers import WorkerEnv, WorkerGroup

from tutils import coordinates

Node = Hashable


class OracleTileReplica:
    """The replica as it was: dict-of-sets state, ``canonical_order``
    per popped node."""

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


def oracle_replica(
    graph: UnitDiskGraph, members: List[Node], mis: Set[Node], backbone: Set[Node]
) -> OracleTileReplica:
    """The old inline build: member-restricted adjacency sets."""
    member_set = set(members)
    adjacency = {m: graph.adjacency(m) & member_set for m in members}
    return OracleTileReplica(
        members, adjacency, member_set & mis, member_set & backbone
    )


@st.composite
def tiles(draw) -> Tuple[UnitDiskGraph, List[int], Set[int], Set[int]]:
    """A small UDG (ids 0..n-1, connected or not) and a random member
    subset, MIS subset and backbone subset of its nodes."""
    points = draw(st.lists(coordinates, min_size=1, max_size=30))
    scale = draw(st.sampled_from([0.4, 0.7, 1.0]))
    graph = UnitDiskGraph(
        {i: Point(x * scale, y * scale) for i, (x, y) in enumerate(points)},
        radius=1.0,
    )
    nodes = list(range(len(points)))
    subset = st.sets(st.sampled_from(nodes))
    members = draw(st.lists(st.sampled_from(nodes), unique=True, min_size=1))
    return graph, members, draw(subset), draw(subset)


def assert_same_answers(replica: _TileReplica, oracle: OracleTileReplica,
                        graph: UnitDiskGraph) -> None:
    """Every member pair's route and every node's dominator and
    membership, plus ids no tile holds."""
    probes: List[Any] = sorted(graph.positions) + [len(graph.positions), "nope"]
    for u in probes:
        assert replica.dominator(u) == oracle.dominator(u), u
        assert replica.member(u) is oracle.member(u), u
        for v in probes:
            assert replica.route(u, v) == oracle.route(u, v), (u, v)


class TestReplicaAgainstOracle:
    @given(tile=tiles())
    @settings(max_examples=150, deadline=None)
    def test_numbered_build(self, tile):
        graph, members, mis, backbone = tile
        nodes, _, adj = number_nodes(graph, members)
        assert_same_answers(
            _TileReplica(nodes, adj, mis, backbone),
            oracle_replica(graph, members, mis, backbone),
            graph,
        )

    @given(tile=tiles())
    @settings(max_examples=60, deadline=None)
    def test_shared_row_build(self, tile):
        # Node i is row i, as in the pool's id-ordered shared array;
        # the worker receives only the tile's rows, in any order.
        graph, members, mis, backbone = tile
        shared = SharedPositions.create(
            [(graph.positions[i].x, graph.positions[i].y)
             for i in range(len(graph.positions))]
        )
        try:
            replica = _replica_from_shared(
                shared, graph.radius, members,
                sorted(set(members) & mis), sorted(set(members) & backbone),
            )
        finally:
            shared.close()
            shared.unlink()
        assert replica.nodes == sorted(members)
        assert_same_answers(
            replica, oracle_replica(graph, members, mis, backbone), graph
        )

    def test_string_ids_route_in_id_order(self):
        # Parents follow id order, not insertion or hash order: with
        # two equally short paths the lower-id middle node wins.
        graph = UnitDiskGraph(
            {"n0": Point(0.0, 0.0), "n2": Point(0.7, 0.5),
             "n1": Point(0.7, -0.5), "n3": Point(1.4, 0.0)},
            radius=1.0,
        )
        members = ["n3", "n1", "n0", "n2"]
        nodes, _, adj = number_nodes(graph, members)
        black = {"n1", "n2"}
        replica = _TileReplica(nodes, adj, {"n1"}, black)
        oracle = oracle_replica(graph, members, {"n1"}, black)
        assert replica.route("n0", "n3") == oracle.route("n0", "n3") == [
            "n0", "n1", "n3"
        ]
        assert replica.dominator("n3") == oracle.dominator("n3") == "n1"
        assert_same_answers(replica, oracle, graph)


@st.composite
def churned_tiles(draw):
    """A tile over a small UDG and a stream of steps: routes from a few
    repeated sources to any id (members, non-members, no id at all),
    and in-place patches, each moving a member (or none) and flipping
    some members' MIS and backbone flags."""
    graph, members, mis, backbone = draw(tiles())
    sources = draw(st.lists(st.sampled_from(members), min_size=1, max_size=6))
    targets = st.sampled_from(sorted(graph.positions) + [len(graph.positions)])
    flips = st.lists(
        st.tuples(st.sampled_from(members), st.booleans(), st.booleans()),
        max_size=4, unique_by=lambda flip: flip[0],
    )
    route = st.tuples(st.just("route"), st.sampled_from(sources), targets)
    patch = st.tuples(
        st.just("patch"), st.one_of(st.none(), st.sampled_from(members)),
        coordinates, flips,
    )
    steps = draw(st.lists(st.one_of(route, route, patch), max_size=40))
    return graph, members, mis, backbone, steps


def _connected_tile(count: int = 12) -> _TileReplica:
    """A black path ``0 - 1 - ... - count-1``: every pair is routable."""
    adj = [tuple(j for j in (i - 1, i + 1) if 0 <= j < count) for i in range(count)]
    return _TileReplica(list(range(count)), adj, {0}, set(range(count)))


class TestRouteTrees:
    @given(tile=churned_tiles())
    @settings(max_examples=120, deadline=None)
    def test_resumed_routes_match_oracle_through_patches(self, tile):
        # Node i is row i of the shared block, as in the pool; a patch
        # keeps the member set, so the oracle is rebuilt from the moved
        # graph and the flipped flags.
        graph, members, mis, backbone, steps = tile
        mis, backbone = set(mis) & set(members), set(backbone) & set(members)
        shared = SharedPositions.create(
            [(graph.positions[i].x, graph.positions[i].y)
             for i in range(len(graph.positions))]
        )
        try:
            replica = _replica_from_shared(
                shared, graph.radius, members, sorted(mis), sorted(backbone)
            )
            oracle = oracle_replica(graph, members, mis, backbone)
            for step in steps:
                if step[0] == "route":
                    _, u, v = step
                    assert replica.route(u, v) == oracle.route(u, v), (u, v)
                    assert len(replica.trees) <= _ROUTE_TREES
                    continue
                _, moved, (x, y), flips = step
                if moved is not None:
                    shared.array[moved] = (x, y)
                    graph.move_node(moved, Point(x, y))
                for row, in_mis, in_backbone in flips:
                    (mis.add if in_mis else mis.discard)(row)
                    (backbone.add if in_backbone else backbone.discard)(row)
                _patch_from_shared(replica, shared, graph.radius, moved, flips)
                oracle = oracle_replica(graph, members, mis, backbone)
        finally:
            shared.close()
            shared.unlink()

    def test_trees_are_bounded_and_least_recently_used_go(self):
        replica = _connected_tile()
        sources = list(range(2 * _ROUTE_TREES + 1))
        for source in sources:
            assert replica.route(source, 11)[-1] == 11
            assert len(replica.trees) <= _ROUTE_TREES
        assert list(replica.trees) == sources[-_ROUTE_TREES:]
        # A reused source moves to the back; the oldest then goes.
        oldest = sources[-_ROUTE_TREES]
        assert replica.route(oldest, 0) == list(range(oldest, -1, -1))
        replica.route(0, 5)
        assert list(replica.trees) == [*sources[-_ROUTE_TREES + 2:], oldest, 0]

    def test_resume_extends_the_same_tree(self):
        replica = _connected_tile()
        assert replica.route(5, 6) == [5, 6]
        parent, frontier, _ = replica.trees[5]
        assert replica.route(5, 11) == list(range(5, 12))
        assert replica.route(5, 4) == [5, 4]  # reached: no scan
        assert replica.trees[5][:2] == (parent, frontier)
        assert sorted(frontier) == list(range(12))
        assert replica.route(5, 99) is None  # not in the tile

    def test_a_patch_that_rewrites_hops_drops_every_tree(self):
        graph = jittered_grid(60, seed=2)
        rows = sorted(graph.positions)
        shared = SharedPositions.create(
            [(graph.positions[i].x, graph.positions[i].y) for i in rows]
        )
        try:
            replica = _replica_from_shared(
                shared, graph.radius, rows, [0], rows[::2]
            )
            for source in rows[:3]:
                replica.route(source, rows[-1])
            assert replica.trees
            # An MIS-only flip rewrites no ``hops`` row: trees stay.
            _patch_from_shared(replica, shared, graph.radius, None, [(0, False, True)])
            assert len(replica.trees) == 3
            # A black flip does.
            _patch_from_shared(replica, shared, graph.radius, None, [(1, False, True)])
            assert not replica.trees
            replica.route(rows[0], rows[-1])
            # So does a moved row.
            _patch_from_shared(replica, shared, graph.radius, rows[5], [])
            assert not replica.trees
        finally:
            shared.close()
            shared.unlink()


def _queries(pool: ShardServePool, rng: random.Random, count: int) -> List[Tuple]:
    """Mixed queries, routes to members of the source's tile, plus a
    few whose target no tile holds."""
    nodes = sorted(pool.graph.positions)
    queries: List[Tuple] = []
    for _ in range(count):
        op = ("dominator", "member", "route", "route")[rng.randrange(4)]
        u = nodes[rng.randrange(len(nodes))]
        if op == "route":
            members = pool.tiler.members(pool.tiler.owner[u])
            queries.append((op, u, members[rng.randrange(len(members))]))
        else:
            queries.append((op, u))
    queries += [("route", nodes[0], "nope"), ("route", nodes[1], 10**9)]
    return queries


class TestPooledAgainstInline:
    def test_random_move_stream(self):
        graph = jittered_grid(400, seed=3)
        config = ShardConfig(tile_size=4.0)
        inline = ShardServePool(graph.copy(), config)
        rng = random.Random(8)
        try:
            with ShardServePool(
                graph.copy(), ShardConfig(tile_size=4.0, workers=2, batch_size=16)
            ) as pooled:
                nodes = sorted(graph.positions)
                for _ in range(20):
                    queries = _queries(inline, rng, 80)
                    assert pooled.query_batch(queries) == inline.query_batch(queries)
                    node = nodes[rng.randrange(len(nodes))]
                    pos = inline.graph.positions[node]
                    target = Point(
                        pos.x + rng.uniform(-0.6, 0.6), pos.y + rng.uniform(-0.6, 0.6)
                    )
                    assert pooled.move(node, target) == inline.move(node, target)
                    assert pooled.backbone_nodes() == inline.backbone_nodes()
                queries = _queries(inline, rng, 200)
                assert pooled.query_batch(queries) == inline.query_batch(queries)
        finally:
            inline.close()


    def test_repeated_sources_across_moves(self):
        # Few hot sources, many targets each, a move between batches:
        # the workers resume the trees the inline lane resumes, and the
        # moves drop the trees of the patched tiles on both.
        graph = jittered_grid(400, seed=4)
        inline = ShardServePool(graph.copy(), ShardConfig(tile_size=4.0))
        rng = random.Random(6)
        nodes = sorted(graph.positions)
        try:
            with ShardServePool(
                graph.copy(), ShardConfig(tile_size=4.0, workers=2, batch_size=16)
            ) as pooled:
                for _ in range(12):
                    hot = rng.sample(nodes, 6)
                    queries: List[Tuple] = []
                    for _ in range(60):
                        u = hot[rng.randrange(len(hot))]
                        members = inline.tiler.members(inline.tiler.owner[u])
                        v = members[rng.randrange(len(members))]
                        queries.append(("route", u, v))
                    queries.append(("route", hot[0], "nope"))
                    assert pooled.query_batch(queries) == inline.query_batch(queries)
                    lane = inline.group.conns[0].env.state
                    assert any(replica.trees for replica in lane.values())
                    node, target = _nudge(inline.graph, rng)
                    assert pooled.move(node, target) == inline.move(node, target)
        finally:
            inline.close()


def assert_replicas_fresh(
    pool: ShardServePool, replicas: Dict[Any, _TileReplica], rows
) -> None:
    """One replica per live tile, each equal field for field (members,
    numbering, adjacency, flags and route edges) to a replica built
    fresh from the stitch's index and the backbone's current
    membership.  ``rows`` maps a replica's position rows back to node
    ids."""
    mis, backbone = pool.backbone.membership()
    assert sorted(replicas) == sorted(pool.tiler.tiles())
    for tile, replica in replicas.items():
        tix = pool.backbone.tile_index(tile)
        fresh = _TileReplica(tix.members, tix.adj, mis, backbone)
        ids = [rows[i] for i in replica.nodes]
        index = {rows[row]: i for row, i in replica.index.items()}
        assert list(ids) == list(fresh.nodes), tile
        assert index == fresh.index, tile
        assert list(replica.adj) == list(fresh.adj), tile
        assert replica.is_mis == fresh.is_mis, tile
        assert replica.black == fresh.black, tile
        assert replica.hops == fresh.hops, tile


class SentMessages:
    """Every message the pool sends its workers, replayed through the
    real worker handler on one local :class:`WorkerEnv` per worker over
    the group's rows, so the replicas compared are the workers' state
    after each load, patch and drop."""

    def __init__(self, monkeypatch, radius: float) -> None:
        self.sent: List[Tuple[int, Tuple[Any, ...]]] = []
        self.envs: Dict[int, WorkerEnv] = {}
        send = WorkerGroup.send

        def recording_send(group, worker_id, message):
            send(group, worker_id, message)
            env = self.envs.get(worker_id)
            if env is None:
                env = self.envs[worker_id] = WorkerEnv(group.array, (radius,), None)
            _serve_tiles(env, message)
            self.sent.append((worker_id, message))

        monkeypatch.setattr(WorkerGroup, "send", recording_send)

    def replicas(self) -> Dict[Any, _TileReplica]:
        held: Dict[Any, _TileReplica] = {}
        for env in self.envs.values():
            held.update(env.state)
        return held


def _nudge(graph: UnitDiskGraph, rng: random.Random) -> Tuple[Node, Point]:
    nodes = sorted(graph.positions)
    node = nodes[rng.randrange(len(nodes))]
    pos = graph.positions[node]
    return node, Point(pos.x + rng.uniform(-0.6, 0.6), pos.y + rng.uniform(-0.6, 0.6))


class TestReplicaFreshness:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_every_replica_is_fresh_after_every_move(self, workers, monkeypatch):
        graph = jittered_grid(400, seed=5)
        recorder = SentMessages(monkeypatch, graph.radius)
        rng = random.Random(9)
        with ShardServePool(
            graph, ShardConfig(tile_size=4.0, workers=workers)
        ) as pool:
            # The lane's own replicas inline; the replayed ones of the
            # spawn workers.
            replicas = recorder.replicas if workers else (
                lambda: pool.group.conns[0].env.state
            )
            assert_replicas_fresh(pool, replicas(), pool._nodes)
            flips = 0
            for _ in range(40):
                report = pool.move(*_nudge(graph, rng))
                flips += len(report.flipped)
                assert_replicas_fresh(pool, replicas(), pool._nodes)
        assert flips > 0
        kinds = Counter(message[0] for _, message in recorder.sent)
        assert kinds["patch"] > kinds["load"] - len(pool.tiler.tiles()) > 0

    def test_only_a_changed_member_set_is_loaded(self, monkeypatch):
        # A move loads exactly the live tiles the node entered or left
        # (a new tile among them) and drops the retired ones; a tile it
        # stays in gets a patch with its row, and a tile refreshed only
        # for a flipped member gets a flag-only patch.  Each case must
        # occur in the stream.
        graph = jittered_grid(400, seed=5)
        recorder = SentMessages(monkeypatch, graph.radius)
        rng = random.Random(12)
        seen: Counter = Counter()
        with ShardServePool(graph, ShardConfig(tile_size=4.0, workers=2)) as pool:
            for _ in range(60):
                node, target = _nudge(graph, rng)
                before = set(pool.tiler.tiles_reading(node))
                del recorder.sent[:]
                pool.move(node, target)
                assert_replicas_fresh(pool, recorder.replicas(), pool._nodes)
                after = set(pool.tiler.tiles_reading(node))
                live = set(pool.tiler.tiles())
                by_kind: Dict[str, Set[Any]] = {}
                for _, message in recorder.sent:
                    by_kind.setdefault(message[0], set()).add(message[1])
                assert by_kind.get("load", set()) == (before ^ after) & live
                assert by_kind.get("drop", set()) == before - live
                row = pool._index[node]
                for _, message in recorder.sent:
                    if message[0] == "patch":
                        _, tile, moved, flags, _ = message
                        assert moved == (row if tile in before & after else None)
                        assert moved is not None or flags
                        seen["flag-only"] += moved is None
                seen["enters"] += bool(after - before)
                seen["leaves"] += bool((before - after) & live)
        assert seen["enters"] and seen["leaves"] and seen["flag-only"], seen
