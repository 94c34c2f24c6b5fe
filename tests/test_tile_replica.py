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
nodes move.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs.graph import canonical_order
from repro.graphs.udg import UnitDiskGraph
from repro.shard import ShardConfig, SharedPositions, ShardServePool
from repro.shard.bench import jittered_grid
from repro.shard.pool import _replica_from_shared, _TileReplica
from repro.wcds.connectors import number_nodes

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
