"""The level-synchronous overlay shortest-path kernel against a heap
Dijkstra.

:class:`repro.routing.overlay.OverlayPaths` replaced two binary-heap
Dijkstras, one in the centralized clusterhead router and one in the
link-state table protocol.  The heap versions live on here as oracles:
the kernel must give exactly their first hops and distances — from one
source settled in the same order, and from all sources at once in one
pass — on every overlay: equal-cost ties, disconnected parts and mixed
int/str ids (the ``repr`` fallback of ``canonical_order``) included.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, Hashable, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import jittered_grid
from repro.graphs.generators import line_udg
from repro.graphs.graph import canonical_order
from repro.graphs.traversal import bfs_distances
from repro.mobility import RandomWaypointModel
from repro.routing import ClusterheadRouter, DominatorLists
from repro.routing.overlay import OverlayPaths
from repro.routing.table_protocol import _dijkstra_table, build_routing_tables
from repro.service import BackboneService
from repro.wcds import algorithm2_centralized, algorithm2_distributed

from tutils import dense_connected_udg, seeds

Table = Dict[Hashable, Tuple[Hashable, int]]


# ----------------------------------------------------------------------
# Oracles: the heap Dijkstras the kernel replaced
# ----------------------------------------------------------------------
def heap_dijkstra(
    adjacency: Dict[Hashable, Dict[Hashable, int]], source: Hashable
) -> Table:
    """``node -> (first hop, distance)``, in pop order."""
    table: Table = {}
    counter = itertools.count()
    heap = [(0, next(counter), source, None)]
    done: Set[Hashable] = set()
    while heap:
        dist, _, node, first_hop = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node != source:
            table[node] = (first_hop, dist)
        links = adjacency.get(node, {})
        for nbr in canonical_order(links):
            if nbr not in done:
                heapq.heappush(
                    heap,
                    (
                        dist + links[nbr],
                        next(counter),
                        nbr,
                        nbr if node == source else first_hop,
                    ),
                )
    return table


def merge_advertisements(database) -> Dict[Hashable, Dict[Hashable, int]]:
    """The link-state merge: a link either side advertised is usable
    both ways, at the cheaper advertised cost."""
    adjacency: Dict[Hashable, Dict[Hashable, int]] = {d: {} for d in database}
    for origin, links in database.items():
        for target, cost in links:
            if target not in adjacency:
                adjacency[target] = {}
            best = min(cost, adjacency[origin].get(target, cost))
            adjacency[origin][target] = best
            adjacency[target][origin] = best
    return adjacency


def reference_lists(graph, result) -> Dict[Hashable, DominatorLists]:
    """The router's synthesized dominator lists as first written: every
    MIS-dominator checked against every other, a BFS per 3-hop pair."""
    mis = set(result.mis_dominators)
    dominators = set(result.dominators)

    def three_hop_path(u, w) -> Optional[Tuple[Hashable, Hashable]]:
        dist_w = bfs_distances(graph, w, cutoff=2)
        for v in sorted(graph.adjacency(u) & dominators):
            if dist_w.get(v) == 2:
                return v, min(graph.adjacency(v) & graph.adjacency(w))
        return None

    lists = {}
    for node in graph.nodes():
        one_hop = tuple(sorted(graph.adjacency(node) & mis))
        two_hop: Dict[Hashable, Hashable] = {}
        three_hop: Dict[Hashable, Tuple[Hashable, Hashable]] = {}
        if node in mis:
            dist = bfs_distances(graph, node, cutoff=3)
            for other in mis:
                if dist.get(other) == 2:
                    two_hop[other] = min(graph.adjacency(node) & graph.adjacency(other))
                elif dist.get(other) == 3:
                    hop = three_hop_path(node, other)
                    if hop is not None:
                        three_hop[other] = hop
        lists[node] = DominatorLists(one_hop, two_hop, three_hop)
    return lists


def router_overlay(router: ClusterheadRouter) -> Dict[Hashable, Dict[Hashable, int]]:
    """The weighted overlay the router builds from its lists."""
    overlay: Dict[Hashable, Dict[Hashable, int]] = {u: {} for u in router.mis}
    for u in router.mis:
        entry = router.lists[u]
        for w in entry.two_hop:
            if w in overlay:
                overlay[u][w] = overlay[w][u] = 2
        for w in entry.three_hop:
            if w in overlay:
                overlay[u][w] = min(overlay[u].get(w, 3), 3)
                overlay[w][u] = min(overlay[w].get(u, 3), 3)
    return overlay


# ----------------------------------------------------------------------
# Random overlays: few nodes, weights {2, 3}, so ties are everywhere
# ----------------------------------------------------------------------
INT_IDS = list(range(14))
MIXED_IDS = INT_IDS[:8] + ["a", "b", "c", "d", "e", "f"]


@st.composite
def overlays(draw, ids=INT_IDS):
    nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids),
                          unique=True))
    adjacency: Dict[Hashable, Dict[Hashable, int]] = {u: {} for u in nodes}
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for u, v in pairs:
        if rng.random() < density:
            weight = rng.choice((2, 3))
            adjacency[u][v] = adjacency[v][u] = weight
    source = draw(st.sampled_from(nodes))
    return adjacency, source


@st.composite
def databases(draw):
    """Link-state databases: one-sided and parallel advertisements."""
    nodes = draw(st.lists(st.sampled_from(MIXED_IDS), min_size=1,
                          max_size=10, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    database = {}
    for origin in nodes:
        links = [
            (target, rng.choice((2, 3)))
            for target in nodes
            if target != origin and rng.random() < 0.3
        ]
        database[origin] = tuple(sorted(links, key=repr))
    return database, draw(st.sampled_from(nodes))


@st.composite
def wide_overlays(draw):
    """Weights 1-7 with many equal-cost ties (drawn from a few values
    per overlay), disconnected parts and isolated nodes, neighbours
    without an entry of their own, and mixed int/str ids."""
    ids = draw(st.sampled_from([INT_IDS, MIXED_IDS]))
    nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids),
                          unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = rng.sample(range(1, 8), rng.randint(1, 3))
    parts = rng.randint(1, 3)
    part = {node: rng.randrange(parts) for node in nodes}
    density = draw(st.floats(min_value=0.0, max_value=0.7))
    adjacency: Dict[Hashable, Dict[Hashable, int]] = {u: {} for u in nodes}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if part[u] == part[v] and rng.random() < density:
                weight = rng.choice(weights)
                adjacency[u][v] = adjacency[v][u] = weight
    # Some linked nodes keep no entry of their own: they appear only
    # as a neighbour.
    for node in nodes[1:]:
        if adjacency[node] and rng.random() < 0.2:
            del adjacency[node]
    return adjacency


def assert_all_pairs_match_heap(adjacency) -> None:
    """Every row of the all-sources pass equals the heap Dijkstra run
    from that source, first hops and distances both."""
    paths = OverlayPaths(adjacency)
    first_hop, distance = paths.all_pairs()
    nodes = paths.nodes
    for s, source in enumerate(nodes):
        expected = heap_dijkstra(adjacency, source)
        got = {
            nodes[u]: (nodes[hop], int(distance[s, u]))
            for u, hop in enumerate(first_hop[s].tolist())
            if hop >= 0 and u != s
        }
        assert got == expected, source
        assert first_hop[s, s] == s and distance[s, s] == 0
        unreached = [u for u, hop in enumerate(first_hop[s].tolist()) if hop < 0]
        assert all(distance[s, u] == -1 for u in unreached)


class TestKernelAgainstHeap:
    @given(overlays())
    @settings(max_examples=300, deadline=None)
    def test_int_ids(self, case):
        adjacency, source = case
        expected = heap_dijkstra(adjacency, source)
        table = OverlayPaths(adjacency).table(source)
        # Same entries settled in the same order.
        assert list(table.items()) == list(expected.items())

    @given(overlays(MIXED_IDS))
    @settings(max_examples=300, deadline=None)
    def test_mixed_int_str_ids(self, case):
        adjacency, source = case
        expected = heap_dijkstra(adjacency, source)
        paths = OverlayPaths(adjacency)
        assert list(paths.table(source).items()) == list(expected.items())
        assert paths.first_hops(source) == {
            node: hop for node, (hop, _) in expected.items()
        }

    @given(databases())
    @settings(max_examples=200, deadline=None)
    def test_link_state_table(self, case):
        database, source = case
        expected = heap_dijkstra(merge_advertisements(database), source)
        assert list(_dijkstra_table(source, database).items()) == list(
            expected.items()
        )

    @given(wide_overlays())
    @settings(max_examples=300, deadline=None)
    def test_all_sources_at_once(self, adjacency):
        assert_all_pairs_match_heap(adjacency)

    @given(wide_overlays())
    @settings(max_examples=100, deadline=None)
    def test_one_source_settles_in_heap_order(self, adjacency):
        paths = OverlayPaths(adjacency)
        for source in paths.nodes:
            assert list(paths.table(source).items()) == list(
                heap_dijkstra(adjacency, source).items()
            )

    def test_empty_overlay(self):
        first_hop, distance = OverlayPaths({}).all_pairs()
        assert first_hop.shape == distance.shape == (0, 0)

    def test_local_order_not_global_order(self):
        # Globally the ids mix int and str (repr order: 10 before 9),
        # but node "s" links only ints, so it tries 9 before 10 — and
        # both reach "t" at cost 4, so the first hop is 9.
        adjacency = {
            "s": {9: 2, 10: 2},
            9: {"s": 2, "t": 2},
            10: {"s": 2, "t": 2},
            "t": {9: 2, 10: 2},
        }
        table = OverlayPaths(adjacency).table("s")
        assert table["t"] == (9, 4)
        assert table == heap_dijkstra(adjacency, "s")

    def test_disconnected_part_is_absent(self):
        adjacency = {0: {1: 2}, 1: {0: 2}, 2: {3: 3}, 3: {2: 3}}
        paths = OverlayPaths(adjacency)
        assert paths.table(0) == {1: (1, 2)}
        assert paths.table(3) == {2: (2, 3)}

    def test_unknown_source_reaches_nothing(self):
        assert OverlayPaths({0: {1: 2}}).table("elsewhere") == {}

    def test_neighbour_without_entry_is_a_leaf(self):
        assert OverlayPaths({0: {1: 3}}).table(0) == {1: (1, 3)}

    @pytest.mark.parametrize("weight", [0, -2, 2.5, 2.0, True, "2", None])
    def test_bad_weight_raises(self, weight):
        with pytest.raises(ValueError, match="positive integers"):
            OverlayPaths({0: {1: weight}, 1: {}})

    def test_weights_above_three(self):
        adjacency = {0: {1: 7, 2: 1}, 1: {0: 7, 2: 5}, 2: {0: 1, 1: 5}}
        table = OverlayPaths(adjacency).table(0)
        assert table == heap_dijkstra(adjacency, 0) == {2: (2, 1), 1: (2, 6)}


# ----------------------------------------------------------------------
# The router and the link-state tables on real backbones
# ----------------------------------------------------------------------
class TestRouterTables:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthesized_router_matches_oracles(self, seed):
        graph = jittered_grid(400, seed)
        result = algorithm2_centralized(graph)
        router = ClusterheadRouter(graph, result)
        assert router.lists == reference_lists(graph, result)
        overlay = router_overlay(router)
        paths = OverlayPaths(overlay)
        for source in router.mis:
            expected = heap_dijkstra(overlay, source)
            assert router.first_hops(source) == {
                node: hop for node, (hop, _) in expected.items()
            }
            # Same entries settled in the same order.
            assert list(paths.table(source).items()) == list(expected.items())

    def test_every_row_of_a_2000_node_overlay(self):
        graph = jittered_grid(2000, 0)
        router = ClusterheadRouter(graph, algorithm2_centralized(graph))
        overlay = router_overlay(router)
        assert len(overlay) == 506
        assert_all_pairs_match_heap(overlay)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_distributed_router_matches_oracle(self, seed):
        graph = dense_connected_udg(40, seed)
        result = algorithm2_distributed(graph)
        router = ClusterheadRouter(graph, result)
        overlay = router_overlay(router)
        for source in router.mis:
            assert router.first_hops(source) == {
                node: hop for node, (hop, _) in heap_dijkstra(overlay, source).items()
            }

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_link_state_tables_match_the_router(self, seed):
        # Both sides share one kernel now, so on the same overlay even
        # the tied next hops agree, not only the distances.
        graph = dense_connected_udg(30, seed)
        result = algorithm2_distributed(graph)
        tables, _ = build_routing_tables(graph, result)
        router = ClusterheadRouter(graph, result)
        overlay = router_overlay(router)
        for source, table in tables.items():
            expected = heap_dijkstra(overlay, source)
            assert {node: dist for node, (_, dist) in table.items()} == {
                node: dist for node, (_, dist) in expected.items()
            }

    def test_refreshed_snapshot_routes_like_a_fresh_router(self):
        graph = jittered_grid(300, 4)
        service = BackboneService(graph)
        mobility = RandomWaypointModel(
            graph, 9.0, speed_range=(0.01, 0.05), seed=2
        )
        for _ in range(3):
            service.ingest_events(mobility.step())
        assert service.has_pending_work
        service.refresh()
        snapshot = service._snapshot
        fresh = ClusterheadRouter(snapshot.graph.copy(), snapshot.result)
        assert snapshot.router.lists == fresh.lists
        assert snapshot.router.mis == fresh.mis
        for source in fresh.mis:
            assert snapshot.router.first_hops(source) == fresh.first_hops(source)
        rng = random.Random(5)
        nodes = sorted(snapshot.graph.nodes())
        for _ in range(300):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            assert snapshot.router.route(src, dst) == fresh.route(src, dst)

    def test_disconnected_overlay_answers_with_an_error_response(self):
        # A chain of 13 radios: once the middle one leaves, the
        # snapshot's overlay has two components, and a route across
        # them is an error response, not a crash.
        service = BackboneService(line_udg(13))
        assert service.route(0, 12).ok
        service.leave(6)
        response = service.route(0, 12)
        assert not response.ok
        assert "overlay disconnects" in response.error
        router = service._snapshot.router
        heads = router.first_hops(router.clusterhead_of(0))
        assert router.clusterhead_of(12) not in heads
        # Routes inside one component still answer.
        assert service.route(0, 5).value == [0, 1, 2, 3, 4, 5]
        assert service.route(7, 12).value == [7, 8, 9, 10, 11, 12]
