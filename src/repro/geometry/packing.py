"""Disk-packing bounds behind the paper's area arguments.

Lemmas 1 and 2 of the paper bound how many pairwise non-adjacent nodes
(distance > 1 apart) can sit inside a disk or annulus.  The argument:
disks of radius 0.5 centred at pairwise-independent points are disjoint,
so their total area cannot exceed the area of the region inflated by 0.5.
These helpers compute those bounds so tests and benchmarks can compare
the measured extrema against the proven ones.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def disk_packing_bound(radius: float, separation: float = 1.0) -> int:
    """Upper bound on points with pairwise distance > ``separation``
    inside a disk of the given ``radius``.

    Each point carries a private disk of radius ``separation / 2``; those
    private disks are disjoint and lie inside the disk of radius
    ``radius + separation / 2``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    half = separation / 2.0
    bound = ((radius + half) / half) ** 2
    return _strict_floor(bound)


def annulus_packing_bound(
    inner: float, outer: float, separation: float = 1.0
) -> int:
    """Upper bound on points with pairwise distance > ``separation``
    inside the annulus of radii ``inner`` and ``outer``.

    This is the paper's Lemma 2 argument: the private disks of radius
    ``separation / 2`` lie inside the annulus of radii
    ``inner - separation/2`` and ``outer + separation/2`` and are
    disjoint, so counting by area bounds the number of points.
    """
    if inner < 0 or outer < inner:
        raise ValueError("need 0 <= inner <= outer")
    half = separation / 2.0
    grown_outer = outer + half
    shrunk_inner = max(inner - half, 0.0)
    area = math.pi * (grown_outer**2 - shrunk_inner**2)
    per_point = math.pi * half**2
    return _strict_floor(area / per_point)


def max_independent_points_in_annulus(inner: float, outer: float) -> int:
    """Packing bound for unit-separated points in an annulus.

    Convenience wrapper over :func:`annulus_packing_bound` with the
    unit-disk-graph separation of 1 (MIS nodes are pairwise > 1 apart).
    """
    return annulus_packing_bound(inner, outer, separation=1.0)


def rect_band_packing_bound(
    width: float, height: float, band: float, separation: float = 1.0
) -> int:
    """Upper bound on points with pairwise distance > ``separation``
    in the boundary band of a ``width`` × ``height`` rectangle.

    The band is the part of the rectangle within ``band`` of its
    boundary.  Each point carries a disjoint private disk of radius
    ``separation / 2``; the disks lie inside the band inflated by that
    half-separation on both sides, whose area is the inflated outer
    rectangle minus the shrunken inner hole.  Dividing by the private
    disk area gives the strict count — Lemma 2's argument transplanted
    from the annulus to the tile frontier, which is why frontier
    exchange is O(perimeter) while the tile itself is O(area).
    """
    if width < 0 or height < 0:
        raise ValueError("width and height must be non-negative")
    if band < 0:
        raise ValueError("band must be non-negative")
    half = separation / 2.0
    outer_w = width + 2 * half
    outer_h = height + 2 * half
    hole_w = max(width - 2 * (band + half), 0.0)
    hole_h = max(height - 2 * (band + half), 0.0)
    area = outer_w * outer_h - hole_w * hole_h
    per_point = math.pi * half**2
    return _strict_floor(area / per_point)


def mis_neighbors_bound() -> int:
    """Lemma 1: a node not in the MIS has at most five MIS neighbors.

    MIS nodes adjacent to ``u`` lie in the unit disk around ``u`` and are
    pairwise more than one apart; at most five such points fit (the
    standard hexagonal argument — six would force two within distance 1).
    """
    return 5


def mis_two_hop_bound() -> int:
    """Lemma 2(1): MIS nodes exactly two hops from an MIS node ``u``.

    Their centres lie in the annulus of radii 1 and 2 around ``u`` (they
    are non-adjacent to ``u`` but reachable through one relay), so their
    private 0.5-disks fit in the annulus of radii 0.5 and 2.5:
    ``(2.5^2 - 0.5^2) / 0.5^2 = 24``, strictly, hence at most 23.
    """
    return annulus_packing_bound(1.0, 2.0, separation=1.0)


def mis_three_hop_bound() -> int:
    """Lemma 2(2): MIS nodes within three hops of an MIS node ``u``.

    Centres lie in the annulus of radii 1 and 3; private disks fit in the
    annulus of radii 0.5 and 3.5: ``(3.5^2 - 0.5^2)/0.5^2 = 48``,
    strictly, hence at most 47.
    """
    return annulus_packing_bound(1.0, 3.0, separation=1.0)


def disk_occupancies(
    points: Sequence[Tuple[float, float]],
    centers: Sequence[Tuple[float, float]],
    radius: float,
) -> List[int]:
    """How many of ``points`` fall within ``radius`` of each center.

    The measured counterpart of the packing *bounds* above: run it with
    MIS nodes as ``points`` to compare observed disk occupancy against
    :func:`disk_packing_bound`.  Below 64 point-center pairs the pure
    :func:`pure_disk_occupancies` counts, from there the broadcast
    kernel; the counts are identical.
    """
    from repro.kernels import count_points_in_disks, use_vector

    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not use_vector(len(points) * len(centers)):
        return pure_disk_occupancies(points, centers, radius)
    result = count_points_in_disks(list(points), list(centers), radius)
    return [int(c) for c in result.tolist()]


def pure_disk_occupancies(
    points: Sequence[Tuple[float, float]],
    centers: Sequence[Tuple[float, float]],
    radius: float,
) -> List[int]:
    """:func:`disk_occupancies` as a plain Python scan: the oracle."""
    limit = radius * radius
    counts = []
    for cx, cy in centers:
        inside = 0
        for px, py in points:
            dx = px - cx
            dy = py - cy
            if dx * dx + dy * dy <= limit:
                inside += 1
        counts.append(inside)
    return counts


def max_disk_occupancy(
    points: Sequence[Tuple[float, float]], radius: float
) -> int:
    """Largest number of ``points`` inside any disk of ``radius``
    centred at one of the points themselves (0 for an empty set).

    Used by benchmarks to report measured packing extrema next to the
    proven Lemma 1/2 bounds.
    """
    if not points:
        return 0
    return max(disk_occupancies(points, points, radius))


def _strict_floor(value: float) -> int:
    """Largest integer strictly below ``value`` (the area bounds are
    strict inequalities), with a small tolerance for float error."""
    floor = math.floor(value + 1e-9)
    if abs(value - floor) <= 1e-9:
        return floor - 1
    return floor
