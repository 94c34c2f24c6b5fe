"""Shared strategies and topology helpers for the test suite.

Lives outside conftest.py so the name never collides with the
benchmarks' conftest when both directories are collected in one run.
"""

import math
import random

from hypothesis import strategies as st

from repro.geometry import Point
from repro.graphs import connected_components, connected_random_udg
from repro.graphs.graph import canonical_order
from repro.mis import is_dominating_set
from repro.wcds import algorithm2_centralized, weakly_induced_subgraph

#: Seeds drive all randomized topologies: a failing example shrinks to a
#: reproducible (seed, size) pair instead of an opaque point set.
seeds = st.integers(min_value=0, max_value=10_000)

#: Node counts for property tests — small enough for exhaustive checks.
small_sizes = st.integers(min_value=1, max_value=30)
medium_sizes = st.integers(min_value=2, max_value=60)

#: Coordinates for hand-rolled unit-disk instances.
coordinates = st.tuples(
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False, allow_infinity=False),
)
position_lists = st.lists(coordinates, min_size=1, max_size=40)


def dense_connected_udg(num_nodes: int, seed: int):
    """A connected random UDG at a density where connectivity is easy.

    The side scales with sqrt(n) to keep average degree around 6-8.
    """
    side = max(1.0, (num_nodes / 6.0) ** 0.5 * 1.6)
    return connected_random_udg(num_nodes, side, seed=seed)


def gentle_moves(graph, tiler, count: int, seed: int):
    """Yield ``count`` moves ``(node, target)`` that flip no unit-disk edge.

    Each move takes a node no other tile reads and shifts it, in a
    random direction, by half its link margin: the smallest
    ``|d(v, w) - R|`` over the nodes ``w`` within ``2R``, read on the
    live graph.  By the triangle inequality no distance then crosses
    ``R``.  Apply each move before drawing the next.
    """
    rng = random.Random(seed)
    quiet = [v for v in sorted(graph.positions) if not tiler.consumers(v)]
    for _ in range(count):
        node = quiet[rng.randrange(len(quiet))]
        pos = graph.positions[node]
        step = 0.5 * min(
            abs(pos.distance_to(graph.positions[w]) - graph.radius)
            for w in graph.nodes_within(pos, 2.0 * graph.radius)
            if w != node
        )
        angle = rng.uniform(0.0, 2.0 * math.pi)
        yield node, Point(
            pos.x + step * math.cos(angle), pos.y + step * math.sin(angle)
        )


def note_step(backbone, events):
    """Note a mobility step on a ``ShardedBackbone`` the way the service
    does: every endpoint and moved node, in canonical order.  Returns
    the reports."""
    touched = events.endpoints.union(events.moved)
    return [backbone.note_moved(node) for node in canonical_order(touched)]


def assert_valid_and_exact(backbone):
    """The maintained backbone dominates the graph, weakly connects each
    component, and equals ``algorithm2_centralized`` run from scratch on
    each connected component: MIS, dominators and connector picks."""
    graph = backbone.graph
    result = backbone.result()
    components = connected_components(graph)
    spanner = weakly_induced_subgraph(graph, result.dominators)
    assert is_dominating_set(graph, result.dominators)
    assert len(connected_components(spanner)) == len(components)
    rebuilds = [algorithm2_centralized(graph.subgraph(c)) for c in components]
    assert result.mis_dominators == frozenset().union(
        *(r.mis_dominators for r in rebuilds)
    )
    assert result.dominators == frozenset().union(*(r.dominators for r in rebuilds))
    assert sorted(result.meta["pairs_covered"]) == sorted(
        pair for r in rebuilds for pair in r.meta["pairs_covered"]
    )
