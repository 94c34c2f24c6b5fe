"""Built-in registrations for the backbone registry.

Importing this module (done by ``repro.backbone``) registers the
paper's algorithms, their centralized references, the bare MIS, and
the comparison baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.backbone.registry import (
    CentralizedAlgorithm,
    DistributedAlgorithm,
    as_backbone_result,
    register,
)
from repro.baselines.chen_liestman import greedy_wcds
from repro.baselines.guha_khuller import greedy_cds
from repro.baselines.mis_cds import mis_tree_cds
from repro.baselines.wu_li import wu_li_cds
from repro.baselines.wu_li_distributed import wu_li_distributed
from repro.mis.distributed import run_mis
from repro.sim.config import SimConfig
from repro.wcds.algorithm1 import algorithm1_centralized, algorithm1_distributed
from repro.wcds.algorithm2 import algorithm2_centralized, algorithm2_distributed

register(DistributedAlgorithm(
    "algorithm1", algorithm1_distributed,
    description="Paper Algorithm I: tree levels + level-ranked MIS",
))
register(DistributedAlgorithm(
    "algorithm2", algorithm2_distributed,
    description="Paper Algorithm II: id-ranked MIS + 3-hop connectors",
))
register(DistributedAlgorithm(
    "mis", run_mis,
    description="Bare id-ranked distributed MIS (dominating, "
    "not necessarily weakly connected)",
))
register(DistributedAlgorithm(
    "wu-li-distributed", wu_li_distributed,
    description="Wu-Li marking + pruning, message-passing version",
))
register(CentralizedAlgorithm(
    "algorithm1-centralized", algorithm1_centralized,
    description="Centralized reference for Algorithm I",
))
register(CentralizedAlgorithm(
    "algorithm2-centralized", algorithm2_centralized,
    description="Centralized reference for Algorithm II",
))
register(CentralizedAlgorithm(
    "greedy-wcds", greedy_wcds,
    description="Chen-Liestman greedy WCDS baseline",
))
register(CentralizedAlgorithm(
    "greedy-cds", greedy_cds,
    description="Guha-Khuller greedy CDS baseline",
))
register(CentralizedAlgorithm(
    "wu-li", wu_li_cds,
    description="Wu-Li marking + pruning, centralized",
))
register(CentralizedAlgorithm(
    "mis-tree", mis_tree_cds,
    description="MIS + BFS-tree connectors CDS baseline",
))


# The optimality oracles of ``repro.opt`` import scipy/numpy machinery;
# wrap them in lazy module-level functions so registering them keeps
# ``import repro.backbone`` dependency-free (same trick as the sharded
# adapter below).
def _mds_exact(graph: Any) -> Any:
    from repro.opt.exact import opt_minimum_dominating_set

    return opt_minimum_dominating_set(graph)


def _wcds_exact(graph: Any) -> Any:
    from repro.opt.exact import opt_minimum_wcds

    return opt_minimum_wcds(graph)


def _cds_exact(graph: Any) -> Any:
    from repro.opt.exact import opt_minimum_cds

    return opt_minimum_cds(graph)


def _mwds_greedy(graph: Any) -> Any:
    from repro.opt.heuristics import greedy_mwds_wcds

    return greedy_mwds_wcds(graph)


register(CentralizedAlgorithm(
    "mds-exact", _mds_exact,
    description="LP-pruned exact minimum dominating set "
    "(optimality oracle, feasible to n ≈ 60)",
))
register(CentralizedAlgorithm(
    "wcds-exact", _wcds_exact,
    description="LP-pruned exact minimum WCDS "
    "(optimality oracle, feasible to n ≈ 60)",
))
register(CentralizedAlgorithm(
    "cds-exact", _cds_exact,
    description="LP-pruned exact minimum CDS "
    "(optimality oracle, feasible to n ≈ 40)",
))
register(CentralizedAlgorithm(
    "mwds-greedy", _mwds_greedy,
    description="Greedy MWDS + 2-hop Steiner connection "
    "(scalable WCDS upper-bound witness)",
))


@dataclass(frozen=True)
class ShardedAlgorithm:
    """Adapter for the tiled Algorithm II construction.

    Deterministic like the centralized references, but it threads the
    observability handles through so per-tile build and stitch metrics
    land in the caller's registry.  Requires a
    :class:`~repro.graphs.udg.UnitDiskGraph` — the tiling is geometric.
    """

    name: str
    description: str = ""
    distributed: bool = False

    def run(
        self,
        graph: Any,
        *,
        tracer: Any = None,
        registry: Any = None,
        sim: Optional[SimConfig] = None,
    ):
        from repro.graphs.udg import UnitDiskGraph
        from repro.shard.stitch import build_sharded

        if sim is not None and (sim.faulty or sim.transport):
            raise ValueError(
                f"{self.name} is centralized; faults and transport only "
                "apply to distributed simulations"
            )
        if not isinstance(graph, UnitDiskGraph):
            raise TypeError(
                f"{self.name} tiles the deployment plane and needs a "
                f"UnitDiskGraph, got {type(graph).__name__}"
            )
        result = build_sharded(graph, registry=registry, tracer=tracer)
        return as_backbone_result(result, self.name)


register(ShardedAlgorithm(
    "wcds-sharded",
    description="Paper Algorithm II built per spatial tile and "
    "stitched by frontier exchange (exact, boundary-local)",
))
