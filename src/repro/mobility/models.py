"""Additional mobility models: random direction and Gauss-Markov.

Random waypoint (``repro.mobility.waypoint``) is the default, but its
well-known density bias (nodes cluster toward the middle of the area)
makes a second and third model worthwhile for the maintenance
experiments:

* **Random direction** — each node picks a heading and travels until it
  hits the boundary, where it reflects and picks a new heading; node
  density stays uniform.
* **Gauss-Markov** — heading and speed evolve as an AR(1) process, so
  motion is temporally correlated (smooth trajectories), tunable from
  near-Brownian (alpha → 0) to near-constant-velocity (alpha → 1).

All models share the :class:`MobilityModel` protocol: ``step(dt)``
moves every node in the attached UDG and returns the link events
(with every node as moved).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, List, Optional, Protocol, Tuple

from repro.geometry.point import Point
from repro.graphs.udg import UnitDiskGraph
from repro.mobility.waypoint import LinkEvents


class MobilityModel(Protocol):
    """Common protocol of all mobility models."""

    def step(self, dt: float = 1.0) -> LinkEvents: ...


def _clamp_reflect(value: float, limit: float) -> Tuple[float, bool]:
    """Reflect ``value`` into ``[0, limit]``; flag if reflected."""
    reflected = False
    while not 0.0 <= value <= limit:
        reflected = True
        if value < 0.0:
            value = -value
        else:
            value = 2.0 * limit - value
    return value, reflected


class _HeadingModel:
    """Travel along a per-node heading with boundary reflection; the
    subclasses draw speeds and say how motion evolves and reflects."""

    def __init__(self, udg: UnitDiskGraph, side: float, seed: Optional[int]) -> None:
        self.udg = udg
        self.side = side
        self._rng = random.Random(seed)
        self._speed: Dict[Hashable, float] = {
            node: self._new_speed() for node in udg.nodes()
        }
        self._heading: Dict[Hashable, float] = {
            node: self._new_heading() for node in udg.nodes()
        }

    def _new_speed(self) -> float:
        raise NotImplementedError

    def _new_heading(self) -> float:
        return self._rng.uniform(0.0, 2.0 * math.pi)

    def _evolve(self, node: Hashable) -> None:
        """Update ``node``'s speed and heading before it moves."""

    def _reflect(self, node: Hashable) -> None:
        self._heading[node] = self._new_heading()

    def step(self, dt: float = 1.0) -> LinkEvents:
        """Evolve, then advance every node, reflecting at walls."""
        gained: List[Tuple[Hashable, Hashable]] = []
        lost: List[Tuple[Hashable, Hashable]] = []
        for node in list(self.udg.nodes()):
            if node not in self._speed:  # joined after construction
                self._speed[node] = self._new_speed()
                self._heading[node] = self._new_heading()
            self._evolve(node)
            pos = self.udg.positions[node]
            travel = self._speed[node] * dt
            x = pos.x + travel * math.cos(self._heading[node])
            y = pos.y + travel * math.sin(self._heading[node])
            x, rx = _clamp_reflect(x, self.side)
            y, ry = _clamp_reflect(y, self.side)
            if rx or ry:
                self._reflect(node)
            up, down = self.udg.move_node(node, Point(x, y))
            gained.extend((node, other) for other in up)
            lost.extend((node, other) for other in down)
        return LinkEvents(
            gained=tuple(gained), lost=tuple(lost), moved=tuple(self.udg.nodes())
        )


class RandomDirectionModel(_HeadingModel):
    """Straight-line travel with boundary reflection: a uniform speed
    per node, and a new uniform heading at every wall."""

    def __init__(
        self,
        udg: UnitDiskGraph,
        side: float,
        speed_range: Tuple[float, float] = (0.05, 0.2),
        seed: Optional[int] = None,
    ) -> None:
        if speed_range[0] <= 0 or speed_range[0] > speed_range[1]:
            raise ValueError("need 0 < min_speed <= max_speed")
        self._speed_range = speed_range
        super().__init__(udg, side, seed)

    def _new_speed(self) -> float:
        return self._rng.uniform(*self._speed_range)


class GaussMarkovModel(_HeadingModel):
    """Temporally correlated mobility (Liang & Haas 1999 style).

    speed_t = α·speed_{t-1} + (1-α)·mean + sqrt(1-α²)·noise, and the
    same recurrence for the heading, whose mean is the node's first
    heading (turned by π with the heading at every wall).  ``alpha`` in
    [0, 1): 0 is memoryless, values near 1 give smooth, persistent
    trajectories.
    """

    def __init__(
        self,
        udg: UnitDiskGraph,
        side: float,
        mean_speed: float = 0.12,
        alpha: float = 0.85,
        speed_sigma: float = 0.04,
        heading_sigma: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if mean_speed <= 0:
            raise ValueError("mean_speed must be positive")
        self.alpha = alpha
        self.mean_speed = mean_speed
        self.speed_sigma = speed_sigma
        self.heading_sigma = heading_sigma
        self._mean_heading: Dict[Hashable, float] = {}
        super().__init__(udg, side, seed)

    def _new_speed(self) -> float:
        return self.mean_speed

    def _evolve(self, node: Hashable) -> None:
        a = self.alpha
        noise_scale = math.sqrt(max(0.0, 1.0 - a * a))
        self._speed[node] = max(
            1e-3,
            a * self._speed[node]
            + (1 - a) * self.mean_speed
            + noise_scale * self._rng.gauss(0.0, self.speed_sigma),
        )
        heading = self._heading[node]
        mean_heading = self._mean_heading.setdefault(node, heading)
        self._heading[node] = (
            a * heading
            + (1 - a) * mean_heading
            + noise_scale * self._rng.gauss(0.0, self.heading_sigma)
        )

    def _reflect(self, node: Hashable) -> None:
        # Turn around on reflection to avoid wall-hugging.
        self._heading[node] += math.pi
        self._mean_heading[node] += math.pi


def density_probe(
    udg: UnitDiskGraph,
    side: float,
    resolution: int = 8,
    *,
    radius: float = 1.0,
) -> List[List[int]]:
    """Node count within ``radius`` of each point of a probe lattice.

    Samples a ``resolution x resolution`` grid of probe centres over the
    deployment square and counts the nodes covering each — the measured
    density map that exposes random waypoint's centre bias (and confirms
    random direction stays uniform).  The batch disk query goes through
    :meth:`UnitDiskGraph.nodes_within_many`.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    step = side / resolution
    centers = [
        Point((col + 0.5) * step, (row + 0.5) * step)
        for row in range(resolution)
        for col in range(resolution)
    ]
    hits = udg.nodes_within_many(centers, radius)
    return [
        [len(hits[row * resolution + col]) for col in range(resolution)]
        for row in range(resolution)
    ]
