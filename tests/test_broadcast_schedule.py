"""The broadcast-schedule kernel against the two loops it replaced.

:class:`repro.routing.broadcast.SpannerIndex` numbers the weakly induced
spanner once and runs each backbone broadcast as a plain BFS over
integers.  Before it, the forwarding rule was written out twice: once in
the backbone service's broadcast plans (a dict spanner and a set of
heard nodes) and once in :func:`backbone_broadcast` (a fresh
``weakly_induced_subgraph`` per call).  Both loops live on here as
oracles: the kernel must give exactly their forwarders, in the same
order, and the same coverage on every graph — disconnected parts,
partial or non-dominating backbones, sources of every role and mixed
int/str ids (the ``repr`` fallback of ``canonical_order``) included.
"""

from __future__ import annotations

import random
from collections import deque
from typing import FrozenSet, Hashable, Iterable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.udg import build_udg
from repro.routing import BroadcastOutcome, backbone_broadcast
from repro.routing.broadcast import SpannerIndex
from repro.service.service import _Snapshot
from repro.wcds import algorithm2_centralized
from repro.wcds.base import WCDSResult, weakly_induced_subgraph

from tutils import dense_connected_udg, seeds


# ----------------------------------------------------------------------
# Oracles: the two loops the kernel replaced
# ----------------------------------------------------------------------
def service_plan(graph: Graph, backbone: Iterable[Hashable], source: Hashable):
    """The backbone service's broadcast plan as first written: a dict
    spanner in canonical order and a set of heard nodes."""
    backbone = frozenset(backbone)
    adjacency = graph.adjacency
    spanner = {
        node: tuple(canonical_order(
            adjacency(node) if node in backbone
            else adjacency(node) & backbone
        ))
        for node in graph.nodes()
    }
    heard = {source}
    forwarders: List[Hashable] = []
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        is_forwarder = (
            node == source
            or node in backbone
            or any(
                nbr in backbone and nbr not in heard
                for nbr in spanner[node]
            )
        )
        if not is_forwarder:
            continue
        forwarders.append(node)
        for nbr in spanner[node]:
            if nbr not in heard:
                heard.add(nbr)
                frontier.append(nbr)
    return {
        "source": source,
        "forwarders": forwarders,
        "transmissions": len(forwarders),
        "covered": len(heard),
        "total": graph.num_nodes,
    }


def subgraph_broadcast(
    graph: Graph, result: WCDSResult, source: Hashable
) -> Tuple[BroadcastOutcome, List[Hashable]]:
    """``backbone_broadcast`` as first written, over a fresh
    ``weakly_induced_subgraph``; it also records the forwarders, which
    the original only counted."""
    backbone = set(result.dominators)
    spanner = weakly_induced_subgraph(graph, backbone)
    heard = {source}
    transmissions = 0
    forwarders: List[Hashable] = []
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        is_forwarder = (
            node == source
            or node in backbone
            or any(
                nbr in backbone and nbr not in heard
                for nbr in spanner.adjacency(node)
            )
        )
        if not is_forwarder:
            continue
        transmissions += 1
        forwarders.append(node)
        for nbr in canonical_order(spanner.adjacency(node)):
            if nbr not in heard:
                heard.add(nbr)
                frontier.append(nbr)
    outcome = BroadcastOutcome(
        transmissions=transmissions, covered=len(heard), total=graph.num_nodes
    )
    return outcome, forwarders


def as_result(backbone: Iterable[Hashable]) -> WCDSResult:
    members = frozenset(backbone)
    return WCDSResult(dominators=members, mis_dominators=members)


def assert_matches_oracles(graph: Graph, backbone: FrozenSet[Hashable]) -> None:
    """Every source's schedule equals both oracles."""
    index = SpannerIndex(graph, backbone)
    result = as_result(backbone)
    for source in canonical_order(graph.nodes()):
        forwarders, covered = index.schedule(source)
        plan = service_plan(graph, backbone, source)
        assert forwarders == plan["forwarders"]
        assert covered == plan["covered"]
        outcome, oracle_forwarders = subgraph_broadcast(graph, result, source)
        assert forwarders == oracle_forwarders
        assert backbone_broadcast(graph, result, source) == outcome


# ----------------------------------------------------------------------
# Random UDGs: sparse boxes split into parts, backbones of every kind
# ----------------------------------------------------------------------
INT_IDS = list(range(18))
#: 9 and 10 are in: their natural order (9, 10) and repr order (10, 9)
#: differ, so per-node canonical order can disagree with the global one.
MIXED_IDS = list(range(6, 15)) + ["a", "b", "c", "d", "e", "f", "g", "h"]


def greedy_mis(graph: Graph, rng: random.Random) -> FrozenSet[Hashable]:
    """A maximal independent set in random order: dominating, but not
    necessarily weakly connected."""
    order = canonical_order(graph.nodes())
    rng.shuffle(order)
    chosen: set = set()
    for node in order:
        if not graph.adjacency(node) & chosen:
            chosen.add(node)
    return frozenset(chosen)


@st.composite
def instances(draw, ids=INT_IDS):
    nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids),
                          unique=True))
    side = draw(st.floats(min_value=0.5, max_value=5.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = build_udg(
        {node: (rng.uniform(0.0, side), rng.uniform(0.0, side)) for node in nodes}
    )
    kind = draw(st.sampled_from(["mis", "mis+ghost", "random", "empty", "all"]))
    if kind == "mis":
        backbone = greedy_mis(graph, rng)
    elif kind == "mis+ghost":
        # Ids outside the graph must not change anything.
        backbone = greedy_mis(graph, rng) | {"ghost", 99}
    elif kind == "random":
        # Partial, usually non-dominating: undominated sources abound.
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        backbone = frozenset(
            node for node in canonical_order(nodes) if rng.random() < density
        )
    elif kind == "empty":
        backbone = frozenset()
    else:
        backbone = frozenset(nodes)
    return graph, backbone


class TestKernelAgainstOracles:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_int_ids(self, case):
        assert_matches_oracles(*case)

    @given(instances(MIXED_IDS))
    @settings(max_examples=300, deadline=None)
    def test_mixed_int_str_ids(self, case):
        assert_matches_oracles(*case)

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_algorithm2_backbones(self, seed):
        graph = dense_connected_udg(40, seed)
        backbone = algorithm2_centralized(graph).dominators
        assert_matches_oracles(graph, backbone)
        forwarders, covered = SpannerIndex(graph, backbone).schedule(0)
        assert covered == graph.num_nodes  # a WCDS reaches everyone

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_snapshot_plans_match_the_service_oracle(self, seed):
        graph = dense_connected_udg(30, seed)
        result = algorithm2_centralized(graph)
        snapshot = _Snapshot(graph.copy(), result)
        for source in canonical_order(graph.nodes()):
            assert snapshot.broadcast_plan(source) == service_plan(
                graph, result.dominators, source
            )


class TestNamedCases:
    def test_local_order_not_global_order(self):
        # Globally the ids mix int and str (repr order: 'a', 'b', 10,
        # 9), but "a" links only ints, so it hands the packet to 9
        # before 10, and 9 is the gateway that reaches "b".
        graph = Graph(edges=[("a", 9), ("a", 10), (9, "b"), (10, "b")])
        backbone = frozenset({"a", "b"})
        assert canonical_order(graph.nodes()) == ["a", "b", 10, 9]
        assert SpannerIndex(graph, backbone).schedule("a") == (["a", 9, "b"], 4)
        assert_matches_oracles(graph, backbone)

    def test_sources_of_every_role(self):
        # 0 - 1 - 2 - 3 on a line; 4 alone.  Dominators {1, 3}: 0 and 2
        # are gray, 4 is undominated.
        graph = Graph(nodes=[4], edges=[(0, 1), (1, 2), (2, 3)])
        index = SpannerIndex(graph, {1, 3})
        assert index.schedule(1) == ([1, 2, 3], 4)  # dominator
        assert index.schedule(0) == ([0, 1, 2, 3], 4)  # gray source
        assert index.schedule(2) == ([2, 1, 3], 4)  # gray, both sides
        assert index.schedule(4) == ([4], 1)  # undominated
        assert_matches_oracles(graph, frozenset({1, 3}))

    def test_silent_gray_node(self):
        # 1 and 2 both hear dominator 0 and link dominator 3; only the
        # first of them in canonical order forwards.
        graph = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        assert SpannerIndex(graph, {0, 3}).schedule(0) == ([0, 1, 3], 4)

    def test_unknown_source_raises(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(KeyError):
            SpannerIndex(graph, {0}).schedule("elsewhere")
        with pytest.raises(KeyError):
            backbone_broadcast(graph, as_result({0}), "elsewhere")

