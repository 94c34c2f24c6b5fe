"""The 3-hop connector kernel against the loops it replaced.

:func:`repro.wcds.connectors.select_connectors` is Algorithm II's
connector rule over integers: MIS nodes within two hops of a leader are
the MIS neighbours of its closed neighbourhood, and the first neighbour
(in id order) that reaches a new MIS node through one more node is the
minimum-id intermediate.  Before it, both ``algorithm2_centralized`` and
``ShardedBackbone`` ran one 3-hop BFS per leader and one 2-hop BFS per
target, and the tiled construction walked a ``Graph.subgraph`` of each
tile.  Those loops live on here as oracles: the kernel must pick the
same pairs in the same order, and the tiled construction must keep every
tile's statuses, connector lists and invalidation reports under churn.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs import connected_random_udg
from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import bfs_distances
from repro.graphs.udg import UnitDiskGraph, build_udg
from repro.mis.centralized import greedy_mis
from repro.shard import ShardConfig, ShardedBackbone
from repro.shard.tiler import TileId
from repro.wcds.algorithm2 import algorithm2_centralized
from repro.wcds.connectors import number_nodes, select_connectors

from tutils import dense_connected_udg, seeds

Node = Hashable
Pair = Tuple[Node, Node, Node]


# ----------------------------------------------------------------------
# Oracles: the deleted BFS connector loops
# ----------------------------------------------------------------------
def bfs_connectors(graph: Graph, mis: Set[Node], owned: Set[Node]) -> List[Pair]:
    """``ShardedBackbone._tile_connectors`` as it was: one 3-hop BFS per
    owned MIS leader, one 2-hop BFS per target, targets in id order."""
    mis_members = [v for v in canonical_order(graph.nodes()) if v in mis]
    chosen_pairs: List[Pair] = []
    for u in mis_members:
        if u not in owned:
            continue
        dist_from_u = bfs_distances(graph, u, cutoff=3)
        targets = [
            w for w in mis_members if w > u and dist_from_u.get(w) == 3
        ]
        for w in targets:
            dist_from_w = bfs_distances(graph, w, cutoff=2)
            candidates = [
                v for v in graph.adjacency(u) if dist_from_w.get(v) == 2
            ]
            if not candidates:  # pragma: no cover - impossible at dist 3
                raise RuntimeError("no intermediate on a 3-hop path")
            chosen_pairs.append((u, w, min(candidates)))
    return chosen_pairs


def centralized_bfs_connectors(graph: Graph, mis: Set[Node]) -> List[Pair]:
    """``algorithm2_centralized``'s loop as it was: the same rule, with
    targets in ``set`` iteration order."""
    pairs_covered = []
    for u in sorted(mis):
        dist_from_u = bfs_distances(graph, u, cutoff=3)
        targets = [w for w in mis if w > u and dist_from_u.get(w) == 3]
        if not targets:
            continue
        for w in targets:
            dist_from_w = bfs_distances(graph, w, cutoff=2)
            candidates = [
                v
                for v in graph.adjacency(u)
                if dist_from_w.get(v) == 2
            ]
            if not candidates:  # pragma: no cover - impossible if dist==3
                raise RuntimeError("no intermediate on a 3-hop path")
            chosen = min(candidates)
            pairs_covered.append((u, w, chosen))
    return pairs_covered


def kernel_connectors(graph: Graph, mis: Set[Node], owned: Set[Node]) -> List[Pair]:
    nodes, _, adj = number_nodes(graph, graph.nodes())
    is_mis = bytearray(node in mis for node in nodes)
    leaders = [i for i, node in enumerate(nodes) if is_mis[i] and node in owned]
    return [
        (nodes[u], nodes[w], nodes[v])
        for u, w, v in select_connectors(adj, is_mis, leaders)
    ]


# ----------------------------------------------------------------------
# The kernel on random UDGs and MIS sets
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    """A random UDG (often split into parts), a set of MIS flags and a
    random set of leaders.  The flags are greedy MIS under a random
    ranking, a subset of one, or (the rule never needs independence)
    any node set at all."""
    n = draw(st.integers(min_value=1, max_value=45))
    side = draw(st.floats(min_value=0.5, max_value=6.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = build_udg([(rng.uniform(0.0, side), rng.uniform(0.0, side))
                       for _ in range(n)])
    order = list(graph.nodes())
    rng.shuffle(order)
    ranking = {node: (rank,) for rank, node in enumerate(order)}
    mis = greedy_mis(graph, ranking)
    kind = draw(st.sampled_from(["mis", "subset", "any"]))
    if kind != "mis":
        keep = draw(st.floats(min_value=0.0, max_value=1.0))
        pool = sorted(mis) if kind == "subset" else sorted(graph.nodes())
        mis = {node for node in pool if rng.random() < keep}
    owned = {node for node in graph.nodes() if rng.random() < 0.7}
    return graph, mis, owned


class TestKernelAgainstOracle:
    @given(instances())
    @settings(max_examples=250, deadline=None)
    def test_random_udgs(self, case):
        graph, mis, owned = case
        assert kernel_connectors(graph, mis, owned) == bfs_connectors(
            graph, mis, owned
        )

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_every_leader(self, case):
        graph, mis, _ = case
        everyone = set(graph.nodes())
        kernel = kernel_connectors(graph, mis, everyone)
        assert kernel == bfs_connectors(graph, mis, everyone)
        assert kernel == sorted(centralized_bfs_connectors(graph, mis))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_algorithm2_centralized(self, seed):
        graph = dense_connected_udg(60, seed)
        result = algorithm2_centralized(graph)
        mis = set(result.mis_dominators)
        assert result.meta["pairs_covered"] == bfs_connectors(
            graph, mis, set(graph.nodes())
        )
        oracle = centralized_bfs_connectors(graph, mis)
        assert result.meta["pairs_covered"] == sorted(oracle)

    def test_path_picks_minimum_intermediate(self):
        # 0 and 5 are three hops apart along 0-1-3-5 and 0-2-4-5: the
        # lower endpoint picks the smaller first hop, the higher none.
        graph = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
        assert kernel_connectors(graph, {0, 5}, {0}) == [(0, 5, 1)]
        assert kernel_connectors(graph, {0, 5}, {5}) == []

    def test_numbering_refuses_mixed_ids(self):
        graph = Graph(edges=[(1, "a")])
        with pytest.raises(TypeError):
            number_nodes(graph, graph.nodes())


# ----------------------------------------------------------------------
# Determinism of algorithm2_centralized's pair order
# ----------------------------------------------------------------------
STRING_ID_SCRIPT = """
from repro.graphs import connected_random_udg
from repro.graphs.udg import build_udg
from repro.wcds.algorithm2 import algorithm2_centralized
base = connected_random_udg(300, 8.0, seed=3)
graph = build_udg({f"n{v:04d}": p for v, p in base.positions.items()})
print(algorithm2_centralized(graph).meta["pairs_covered"])
"""


class TestPairOrder:
    def test_string_ids_come_in_ascending_pair_order(self):
        base = connected_random_udg(300, 8.0, seed=3)
        graph = build_udg({f"n{v:04d}": p for v, p in base.positions.items()})
        pairs = algorithm2_centralized(graph).meta["pairs_covered"]
        assert pairs
        assert pairs == sorted(pairs)
        assert len({(u, w) for u, w, _ in pairs}) == len(pairs)

    def test_pair_order_ignores_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", STRING_ID_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
        assert len(outputs) == 1

    def test_mixed_ids_raise_in_both_constructions(self):
        positions = {0: Point(0.0, 0.0), 1: Point(0.5, 0.0),
                     "a": Point(1.0, 0.0), "b": Point(1.5, 0.0)}
        with pytest.raises(TypeError):
            algorithm2_centralized(UnitDiskGraph(positions, radius=1.0))
        with pytest.raises(TypeError):
            ShardedBackbone(UnitDiskGraph(positions, radius=1.0))


# ----------------------------------------------------------------------
# The tiled construction against its subgraph-walking oracle
# ----------------------------------------------------------------------
class SubgraphShardedBackbone(ShardedBackbone):
    """``ShardedBackbone`` with the deleted per-tile ``Graph.subgraph``
    walk over every member on every pass, and BFS connectors re-selected
    in full for every re-passed tile.  Each pending or dead tile's
    subgraph is dropped before a stitch, so a tile reads the graph
    afresh whenever its members or edges may have changed."""

    def __init__(self, *args, **kwargs) -> None:
        self._subgraphs: Dict[TileId, Graph] = {}
        super().__init__(*args, **kwargs)

    def _stitch(self, pending, phase, patched, changed):
        live = set(self.tiler.tiles())
        for tile in [t for t in self._subgraphs if t in pending or t not in live]:
            del self._subgraphs[tile]
        return super()._stitch(pending, phase, patched, changed)

    def _tile_subgraph(self, tile: TileId) -> Graph:
        cached = self._subgraphs.get(tile)
        if cached is None:
            cached = self.graph.subgraph(self.tiler.members(tile))
            self._subgraphs[tile] = cached
        return cached

    def _local_pass(self, tile: TileId) -> Optional[Dict[int, Optional[bool]]]:
        state = self._tiles[tile]
        renumbered = state.index is None
        sub = self._tile_subgraph(tile)
        pinned = state.pins
        visible = self.tiler.visible_members(tile)
        status: Dict[Node, Optional[bool]] = {}
        for v in canonical_order(sub.nodes()):
            if v in pinned:
                status[v] = pinned[v]
                continue
            settled_in = False
            unsettled = False
            for u in sub.adjacency(v):
                if not u < v:
                    continue
                verdict = status[u]
                if verdict is True:
                    settled_in = True
                elif verdict is None:
                    unsettled = True
            if settled_in:
                status[v] = False
            elif unsettled or v not in visible:
                status[v] = None
            else:
                status[v] = True
        # Stored in the fast path's layout: a vector in the tile's
        # numbering, the owned members without a status, and the
        # members whose status changed.
        members = self.tile_index(tile).members
        old, state.status = state.status, [status[v] for v in members]
        state.waiting = {
            i
            for i, v in enumerate(members)
            if status[v] is None and self.tiler.owner[v] == tile
        }
        state.dirty.clear()
        if renumbered:
            return None
        return {i: old[i] for i, v in enumerate(members) if status[v] is not old[i]}

    def _tile_connectors(self, tile: TileId, seeds) -> Dict[int, List[Pair]]:
        sub = self._tile_subgraph(tile)
        status = self.tile_status(tile)
        mis = {v for v in sub.nodes() if status.get(v) is True}
        index = self.tile_index(tile).index
        connectors: Dict[int, List[Pair]] = {}
        for pair in bfs_connectors(sub, mis, set(self.tiler.owned(tile))):
            connectors.setdefault(index[pair[0]], []).append(pair)
        return connectors


def assert_same_state(fast: ShardedBackbone, oracle: ShardedBackbone) -> None:
    assert fast.tiler.tiles() == oracle.tiler.tiles()
    for tile in fast.tiler.tiles():
        assert list(fast.tile_status(tile).items()) == list(
            oracle.tile_status(tile).items()
        )
        assert fast.tile_connectors(tile) == oracle.tile_connectors(tile)
    assert fast.result() == oracle.result()


@st.composite
def churn_streams(draw):
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["move", "move", "move", "join", "leave"]))
        events.append((
            kind,
            draw(st.integers(min_value=0, max_value=10**6)),
            draw(st.floats(min_value=-0.6, max_value=0.6)),
            draw(st.floats(min_value=-0.6, max_value=0.6)),
        ))
    return events


class TestShardedAgainstSubgraphOracle:
    @given(
        seed=st.integers(min_value=0, max_value=60),
        tile_size=st.floats(min_value=3.5, max_value=13.0),
        events=churn_streams(),
    )
    @settings(max_examples=60, deadline=None)
    def test_churn_streams(self, seed, tile_size, events):
        # Side about 8.8 radii: the smaller tiles have halo nodes beyond
        # the visible band, whose statuses only pins may settle.
        graph = dense_connected_udg(180, seed)
        config = ShardConfig(tile_size=tile_size)
        fast = ShardedBackbone(graph, config)
        oracle = SubgraphShardedBackbone(graph, config)
        assert_same_state(fast, oracle)
        next_id = max(graph.positions) + 1
        for kind, pick, dx, dy in events:
            nodes = sorted(graph.positions)
            node = nodes[pick % len(nodes)]
            pos = graph.positions[node]
            if kind == "move":
                graph.move_node(node, Point(pos.x + dx, pos.y + dy))
                reports = fast.note_moved(node), oracle.note_moved(node)
            elif kind == "join":
                graph.add_node_at(next_id, Point(pos.x + dx, pos.y + dy))
                reports = fast.note_joined(next_id), oracle.note_joined(next_id)
                next_id += 1
            elif len(nodes) > 2:
                graph.remove_node(node)
                reports = fast.note_left(node), oracle.note_left(node)
            else:
                continue
            assert reports[0] == reports[1]
            assert fast.last_rounds == oracle.last_rounds
            assert_same_state(fast, oracle)

    @pytest.mark.parametrize("tile_size", [3.5, 8.0, 13.0])
    def test_fresh_builds(self, tile_size):
        graph = dense_connected_udg(180, 5)
        config = ShardConfig(tile_size=tile_size)
        assert_same_state(
            ShardedBackbone(graph, config), SubgraphShardedBackbone(graph, config)
        )
