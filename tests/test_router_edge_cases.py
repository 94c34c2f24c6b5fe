"""Edge-case tests for the clusterhead router internals."""

import pytest

from repro.graphs import Graph, build_udg, line_udg
from repro.routing import ClusterheadRouter
from repro.routing.clusterhead import _collapse_repeats
from repro.wcds import WCDSResult, algorithm2_distributed


class TestCollapseRepeats:
    def test_no_repeats(self):
        assert _collapse_repeats([1, 2, 3]) == [1, 2, 3]

    def test_consecutive_repeats_collapsed(self):
        assert _collapse_repeats([1, 1, 2, 2, 2, 3]) == [1, 2, 3]

    def test_nonconsecutive_repeats_kept(self):
        assert _collapse_repeats([1, 2, 1]) == [1, 2, 1]


class TestExpandOverlayHop:
    def test_two_hop_forward(self):
        g = line_udg(3)  # 0-1-2, MIS {0, 2}
        result = algorithm2_distributed(g)
        router = ClusterheadRouter(g, result)
        assert router.expand_overlay_hop(0, 2) == [1, 2]

    def test_three_hop_both_directions(self):
        # Path 0-2-3-1: the id-greedy MIS is the endpoints {0, 1},
        # exactly 3 hops apart, forcing an additional-dominator.
        g = Graph(edges=[(0, 2), (2, 3), (3, 1)])
        result = algorithm2_distributed(g)
        assert set(result.mis_dominators) == {0, 1}
        assert result.additional_dominators == frozenset({2})
        router = ClusterheadRouter(g, result)
        forward = router.expand_overlay_hop(0, 1)
        assert forward == [2, 3, 1]
        backward = router.expand_overlay_hop(1, 0)
        assert backward == [3, 2, 0]

    def test_unknown_edge_raises(self):
        g = line_udg(3)
        result = algorithm2_distributed(g)
        router = ClusterheadRouter(g, result)
        with pytest.raises(KeyError):
            router.expand_overlay_hop(0, 99)


class TestDegenerateTopologies:
    def test_single_node(self):
        g = Graph(nodes=[0])
        result = WCDSResult(frozenset({0}), frozenset({0}))
        router = ClusterheadRouter(g, result)
        assert router.route(0, 0) == [0]
        assert router.clusterhead_of(0) == 0

    def test_two_nodes(self):
        g = build_udg([(0, 0), (0.5, 0)])
        result = algorithm2_distributed(g)
        router = ClusterheadRouter(g, result)
        assert router.route(0, 1) == [0, 1]

    def test_gray_without_dominator_neighbor_rejected(self):
        # A manually inconsistent result: node 2 is not dominated.
        g = Graph(edges=[(0, 1), (1, 2)])
        result = WCDSResult(frozenset({0}), frozenset({0}))
        router = ClusterheadRouter(g, result)
        with pytest.raises(ValueError):
            router.clusterhead_of(2)

    def test_star_routes_through_center(self):
        g = build_udg(
            {0: (0, 0), 1: (0.9, 0), 2: (-0.9, 0), 3: (0, 0.9), 4: (0, -0.9)}
        )
        result = algorithm2_distributed(g)
        router = ClusterheadRouter(g, result)
        path = router.route(1, 2)
        assert path == [1, 0, 2]


class TestAsyncEndToEnd:
    def test_async_protocol_feeds_working_router(self):
        from repro.graphs import connected_random_udg, hop_distance
        from repro.sim import SimConfig, UniformLatency

        g = connected_random_udg(45, 4.5, seed=17)
        result = algorithm2_distributed(
            g, sim=SimConfig(latency=UniformLatency(seed=17))
        )
        router = ClusterheadRouter(g, result)
        nodes = sorted(g.nodes())
        for src in nodes[:6]:
            for dst in nodes[-6:]:
                if src == dst:
                    continue
                path = router.route(src, dst)
                router.validate_path(path)
                assert len(path) - 1 <= 3 * hop_distance(g, src, dst) + 2


class TestOneHopOrder:
    """Both list sources order 1HopDomList canonically (ids 9 and 10
    sort numerically, not by ``repr``)."""

    def test_protocol_and_synthesized_lists_agree_around_ten(self):
        g = Graph(edges=[(5, 9), (5, 10), (9, 1), (10, 2)])
        mis = frozenset({9, 10})
        node_state = {
            node: {
                "one_hop_dom": g.adjacency(node) & mis,
                "two_hop_dom": {},
                "three_hop_dom": {},
            }
            for node in g.nodes()
        }
        node_state[9]["two_hop_dom"] = {10: 5}
        node_state[10]["two_hop_dom"] = {9: 5}
        from_protocol = ClusterheadRouter(
            g, WCDSResult(mis, mis, meta={"node_state": node_state})
        )
        synthesized = ClusterheadRouter(g, WCDSResult(mis, mis))
        assert from_protocol.lists[5].one_hop == (9, 10)
        assert synthesized.lists[5].one_hop == (9, 10)
        assert from_protocol.route(1, 2) == synthesized.route(1, 2) == [1, 9, 5, 10, 2]

    def test_distributed_result_matches_synthesized_one_hop(self):
        from repro.graphs import connected_random_udg

        g = connected_random_udg(60, 4.5, seed=3)
        result = algorithm2_distributed(g)
        stripped = WCDSResult(
            result.dominators, result.mis_dominators, result.additional_dominators
        )
        from_protocol = ClusterheadRouter(g, result)
        synthesized = ClusterheadRouter(g, stripped)
        assert any(
            len(entry.one_hop) > 1 and entry.one_hop[0] < 10 <= entry.one_hop[-1]
            for entry in synthesized.lists.values()
        )
        for node in g.nodes():
            assert (
                from_protocol.lists[node].one_hop == synthesized.lists[node].one_hop
            )
