"""Tunables of the backbone service.

Everything that trades freshness, memory, or latency against throughput
lives here.  The defaults are sized for the 100-1000 node deployments
the benchmarks use.  When to re-construct the backbone rather than
re-stitch around each update is not a knob: the service measures both
costs and picks the cheaper (see :mod:`repro.service.service`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.obs.slo import SLO


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.service.BackboneService`."""

    #: Bounded request queue capacity; further requests are rejected.
    queue_capacity: int = 1024
    #: Default per-request deadline in seconds (None = no deadline).
    default_deadline: float | None = None
    #: Side of the spatial tiles (:mod:`repro.shard`) the backbone is
    #: maintained in, in radio radii.  An update re-stitches only the
    #: tiles reading the touched nodes, and only the cached routes
    #: through those tiles' members are evicted.  A deployment smaller
    #: than a tile is one tile.
    tile_size: float = 8.0
    #: Declarative objectives scored against every request
    #: (:class:`repro.obs.slo.SLO`); the service then exposes an
    #: :class:`~repro.obs.slo.SLOMonitor` as ``service.slo_monitor``
    #: with burn-rate gauges in the registry.  Empty = no scoring.
    slos: Tuple[SLO, ...] = ()

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.default_deadline is not None and not (
            self.default_deadline > 0 and math.isfinite(self.default_deadline)
        ):
            raise ValueError("default_deadline must be positive and finite")
        if not self.tile_size > 0:
            raise ValueError("tile_size must be positive (radii)")
        if not isinstance(self.slos, tuple):
            object.__setattr__(self, "slos", tuple(self.slos))
