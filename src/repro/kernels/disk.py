"""Vectorized disk queries: which points lie within r of a center.

Used by ``UnitDiskGraph.nodes_within_many`` (batch coverage / density
probes for the mobility models, via :func:`vector_nodes_within`) and by
the measured packing extrema in :mod:`repro.geometry.packing`.  The
comparisons run the same float64 ``dx*dx + dy*dy <= r*r`` as the pure
scans, so the selected point sets are exactly equal.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Sequence

import numpy as np

from repro.graphs.graph import canonical_order


def _as_coord_array(values: Any) -> Any:
    """``(n, 2)`` float64 array from tuples, ``Point`` objects, or an
    existing array — whatever the pure scans accept, this accepts."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        arr = np.asarray([(x, y) for x, y in values], dtype=np.float64)
    # Empty input and a single bare (x, y) both arrive 1-d.
    return arr.reshape(-1, 2) if arr.ndim != 2 else arr


def batch_points_in_disk(coords: Any, centers: Any, radius: float) -> Any:
    """Boolean matrix ``(len(centers), len(coords))``: membership of
    every point in every query disk, in one broadcast pass."""
    pts = _as_coord_array(coords)
    ctr = _as_coord_array(centers)
    dx = ctr[:, 0:1] - pts[:, 0]
    dy = ctr[:, 1:2] - pts[:, 1]
    return dx * dx + dy * dy <= radius * radius


def count_points_in_disks(coords: Any, centers: Any, radius: float) -> Any:
    """Per-center occupancy counts — ``batch_points_in_disk`` summed
    over the point axis (int64 array of length ``len(centers)``)."""
    return np.count_nonzero(
        batch_points_in_disk(coords, centers, radius), axis=1
    )


def vector_nodes_within(
    udg: Any, centers: Sequence[Any], radius: float
) -> List[List[Hashable]]:
    """Per center (a ``Point``), the nodes of ``udg`` within ``radius``.

    The broadcast twin of one ``udg.nodes_within(center, radius)`` per
    center: the same node lists, each in canonical node order.
    """
    if radius < 0:
        raise ValueError("query radius must be non-negative")
    numbering = udg.numbering()
    nodes = numbering.nodes
    positions = udg.positions
    coords = [(positions[node].x, positions[node].y) for node in nodes]
    inside = batch_points_in_disk(coords, [(c.x, c.y) for c in centers], radius)
    results: List[List[Hashable]] = []
    for row in inside:
        hits = [nodes[j] for j in row.nonzero()[0].tolist()]
        # Number order is canonical order for the whole deployment;
        # on mixed ids a subset's canonical order may differ.
        results.append(hits if numbering.natural else canonical_order(hits))
    return results
