"""Shared strategies and topology helpers for the test suite.

Lives outside conftest.py so the name never collides with the
benchmarks' conftest when both directories are collected in one run.
"""

import math
import random

from hypothesis import strategies as st

from repro.geometry import Point
from repro.graphs import connected_random_udg

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
