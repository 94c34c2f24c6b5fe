"""Tunables of the backbone service.

Everything that trades freshness, memory, or latency against throughput
lives here.  The defaults are sized for the 100-1000 node deployments
the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.slo import SLO
from repro.shard.config import ShardConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`~repro.service.service.BackboneService`.

    ``rebuild_threshold`` is the *dirtiness* bound: the cumulative
    fraction of nodes touched by topology events since the last full
    construction.  Below it, every update is absorbed by the local
    maintenance rules (3-hop repairs); at or above it the service falls
    back to a full rebuild, which restores the id-greedy optimum the
    incremental rules drift away from.
    """

    #: Cumulative touched-node fraction that triggers a full rebuild.
    rebuild_threshold: float = 0.35
    #: Bounded request queue capacity; further requests are rejected.
    queue_capacity: int = 1024
    #: Default per-request deadline in seconds (None = no deadline).
    default_deadline: float | None = None
    #: While a partition fault is active, answer queries from the
    #: last-good snapshot (marked stale) instead of refreshing on a
    #: topology that is known to be split.
    degrade_on_partition: bool = True
    #: Maintain the backbone as spatial tiles stitched at their
    #: frontiers (:mod:`repro.shard`) instead of whole-graph
    #: maintenance.  Churn then re-stitches only the tiles reading the
    #: touched nodes, and route invalidation is scoped to those tiles'
    #: members rather than a hop-radius sweep (and never the whole
    #: cache).  ``None`` keeps the global single-process path.
    sharding: Optional[ShardConfig] = None
    #: Declarative objectives scored against every request
    #: (:class:`repro.obs.slo.SLO`); the service then exposes an
    #: :class:`~repro.obs.slo.SLOMonitor` as ``service.slo_monitor``
    #: with burn-rate gauges in the registry.  Empty = no scoring.
    slos: Tuple[SLO, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be in (0, 1]")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if not isinstance(self.slos, tuple):
            object.__setattr__(self, "slos", tuple(self.slos))
