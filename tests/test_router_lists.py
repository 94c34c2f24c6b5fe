"""The router's synthesized dominator lists against a BFS oracle.

``ClusterheadRouter`` synthesizes each MIS node's 2- and 3-hop lists in
one scan of the numbered graph (:func:`repro.wcds.connectors.three_hop_relays`
with a dominator mask).  The oracle below is the direct definition: one
BFS of depth 3 per MIS node, the minimum common neighbour for each MIS
node two hops away, and for each one three hops away the first dominator
neighbour ``v`` (ascending) sharing a neighbour with it, with the
minimum shared one.  Lists must agree in content and in dict order, and
so must every route.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.graph import canonical_order
from repro.graphs.traversal import bfs_distances
from repro.routing import ClusterheadRouter
from repro.routing.clusterhead import DominatorLists
from repro.wcds import WCDSResult, algorithm1_centralized, algorithm2_centralized

from tutils import dense_connected_udg, seeds


def _three_hop_path(graph, dominators, u, w):
    """``(v, x)`` with ``u-v-x-w`` and ``v`` the minimum dominator
    neighbour of ``u`` on such a path, or ``None``."""
    adjacency = graph.adjacency
    near_w = adjacency(w)
    for v in sorted(adjacency(u) & dominators):
        common = adjacency(v) & near_w
        if common:
            return v, min(common)
    return None


def oracle_lists(graph, result):
    """The dominator lists by per-MIS-node BFS."""
    mis = set(result.mis_dominators)
    dominators = set(result.dominators)
    adjacency = graph.adjacency
    lists = {}
    for node in graph.nodes():
        one_hop = tuple(canonical_order(adjacency(node) & mis))
        two_hop = {}
        three_hop = {}
        if node in mis:
            dist = bfs_distances(graph, node, cutoff=3)
            ball = [other for other, hops in dist.items() if hops >= 2 and other in mis]
            for other in canonical_order(ball):
                if dist[other] == 2:
                    two_hop[other] = min(adjacency(node) & adjacency(other))
                else:
                    hop = _three_hop_path(graph, dominators, node, other)
                    if hop is not None:
                        three_hop[other] = hop
        lists[node] = DominatorLists(one_hop, two_hop, three_hop)
    return lists


class OracleRouter(ClusterheadRouter):
    def _build_lists(self):
        return oracle_lists(self.graph, self.result)


def _listing(lists):
    """Lists with every dict's key order made visible."""
    return [
        (node, entry.one_hop, list(entry.two_hop.items()), list(entry.three_hop.items()))
        for node, entry in lists.items()
    ]


def _outcome(router, src, dst):
    try:
        return router.route(src, dst)
    except (RuntimeError, ValueError, KeyError) as failure:
        return type(failure).__name__


def assert_same_router(graph, result, pairs=40, seed=0):
    synthesized = ClusterheadRouter(graph, result)
    oracle = OracleRouter(graph, result)
    assert _listing(synthesized.lists) == _listing(oracle.lists)
    nodes = sorted(graph.nodes())
    rng = random.Random(seed)
    for _ in range(pairs):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        assert _outcome(synthesized, src, dst) == _outcome(oracle, src, dst)


def _stripped(result):
    return WCDSResult(
        result.dominators, result.mis_dominators, result.additional_dominators
    )


@given(
    n=st.integers(min_value=2, max_value=70),
    seed=seeds,
    which=st.sampled_from(["alg2", "alg1", "arbitrary"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_synthesized_lists_and_routes_equal_the_bfs_oracle(n, seed, which, data):
    graph = dense_connected_udg(n, seed)
    if which == "alg2":
        result = algorithm2_centralized(graph)
    elif which == "alg1":
        result = _stripped(algorithm1_centralized(graph))
    else:
        # Any dominator set, consistent or not: the lists follow the
        # definitions all the same.
        nodes = sorted(graph.nodes())
        mis = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
        extra = data.draw(st.sets(st.sampled_from(nodes)))
        extra -= mis
        result = WCDSResult(frozenset(mis | extra), frozenset(mis), frozenset(extra))
    assert_same_router(graph, result, seed=seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_jittered_grid_lists_equal_the_bfs_oracle(seed):
    from repro.graphs import jittered_grid

    graph = jittered_grid(600, seed)
    assert_same_router(graph, algorithm2_centralized(graph), pairs=100, seed=seed)


def test_mixed_ids_raise_type_error():
    graph = Graph(edges=[(0, "a"), ("a", 1), (1, 2)])
    result = WCDSResult(frozenset({0, 2}), frozenset({0, 2}))
    with pytest.raises(TypeError):
        ClusterheadRouter(graph, result)
