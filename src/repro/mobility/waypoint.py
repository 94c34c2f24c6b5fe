"""Random-waypoint mobility over a unit-disk graph.

The standard ad hoc mobility model: each node picks a uniform waypoint
in the deployment square, moves toward it at its own constant speed,
pauses, and repeats.  Each :meth:`RandomWaypointModel.step` advances
all nodes and reports the link-layer events (edges gained/lost) that
the WCDS maintenance layer reacts to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.geometry.point import Point
from repro.graphs.udg import UnitDiskGraph


@dataclass(frozen=True)
class LinkEvents:
    """Edges gained and lost during one mobility step, and the nodes
    the step moved (a move that flips no link still changes a position,
    which a spatial index must follow)."""

    gained: Tuple[Tuple[Hashable, Hashable], ...]
    lost: Tuple[Tuple[Hashable, Hashable], ...]
    moved: Tuple[Hashable, ...] = ()

    @property
    def endpoints(self) -> Set[Hashable]:
        """All nodes incident to some event — the maintenance trigger
        set."""
        nodes: Set[Hashable] = set()
        for u, v in self.gained + self.lost:
            nodes.add(u)
            nodes.add(v)
        return nodes


class RandomWaypointModel:
    """Moves the nodes of a :class:`UnitDiskGraph` in place."""

    def __init__(
        self,
        udg: UnitDiskGraph,
        side: float,
        speed_range: Tuple[float, float] = (0.05, 0.2),
        pause_steps: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        if speed_range[0] <= 0 or speed_range[0] > speed_range[1]:
            raise ValueError("need 0 < min_speed <= max_speed")
        self.udg = udg
        self.side = side
        self._speed_range = speed_range
        self.pause_steps = pause_steps
        self._rng = random.Random(seed)
        self._speed: Dict[Hashable, float] = {
            node: self._rng.uniform(*speed_range) for node in udg.nodes()
        }
        self._target: Dict[Hashable, Point] = {
            node: self._pick_waypoint() for node in udg.nodes()
        }
        self._pause_left: Dict[Hashable, int] = {node: 0 for node in udg.nodes()}

    def _pick_waypoint(self) -> Point:
        return Point(
            self._rng.uniform(0.0, self.side), self._rng.uniform(0.0, self.side)
        )

    def step(self, dt: float = 1.0) -> LinkEvents:
        """Advance every node by ``dt`` time units; return link events."""
        gained: List[Tuple[Hashable, Hashable]] = []
        lost: List[Tuple[Hashable, Hashable]] = []
        moved: List[Hashable] = []
        for node in list(self.udg.nodes()):
            if node not in self._speed:  # joined after construction
                self._speed[node] = self._rng.uniform(*self._speed_range)
                self._target[node] = self._pick_waypoint()
                self._pause_left[node] = 0
            if self._pause_left[node] > 0:
                self._pause_left[node] -= 1
                continue
            pos = self.udg.positions[node]
            target = self._target[node]
            remaining = pos.distance_to(target)
            travel = self._speed[node] * dt
            if travel >= remaining:
                new_pos = target
                self._target[node] = self._pick_waypoint()
                self._pause_left[node] = self.pause_steps
            else:
                frac = travel / remaining
                new_pos = Point(
                    pos.x + (target.x - pos.x) * frac,
                    pos.y + (target.y - pos.y) * frac,
                )
            up, down = self.udg.move_node(node, new_pos)
            gained.extend((node, other) for other in up)
            lost.extend((node, other) for other in down)
            moved.append(node)
        return LinkEvents(gained=tuple(gained), lost=tuple(lost), moved=tuple(moved))
