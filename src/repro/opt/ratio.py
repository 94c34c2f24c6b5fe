"""Empirical approximation ratios against certified optima.

The paper proves Algorithm I <= 5·opt (Theorem 5 via Lemma 7) and
Algorithm II <= 240·opt (Theorem 10) — the latter wildly loose.  This
module measures what the constants actually are: build the backbone
across protocol seeds on a fixed topology (via the
:mod:`repro.sim.fleet` runner, so sweeps parallelize over cores), and
divide each measured size by the certificate's proven lower bound,
giving a ratio that is conservative — never flattering — even when the
optimum is only sandwiched.

Each seed runs :class:`repro.sim.fleet.BackboneTrial`, whose
``"backbone"`` column is the measured size; a centralized algorithm is
deterministic, so one build covers every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.graphs.udg import UnitDiskGraph
from repro.opt.oracle import OptimalityCertificate, certified_optimum
from repro.wcds.bounds import ALGORITHM1_RATIO, ALGORITHM2_RATIO

#: Theorem envelopes per registry algorithm; anything unlisted is
#: compared against the looser Theorem 10 constant.
THEOREM_ENVELOPES: Mapping[str, int] = {
    "algorithm1": ALGORITHM1_RATIO,
    "algorithm1-centralized": ALGORITHM1_RATIO,
    "algorithm2": ALGORITHM2_RATIO,
    "algorithm2-centralized": ALGORITHM2_RATIO,
}

#: The default sweep: the paper's two distributed constructions.
DEFAULT_ALGORITHMS = ("algorithm1", "algorithm2")


@dataclass(frozen=True)
class AlgorithmRatios:
    """Measured sizes and ratios of one algorithm over a seed sweep."""

    algorithm: str
    sizes: Sequence[int]
    certificate: OptimalityCertificate
    envelope: int

    @property
    def min_size(self) -> int:
        return min(self.sizes)

    @property
    def max_size(self) -> int:
        return max(self.sizes)

    @property
    def mean_size(self) -> float:
        return sum(self.sizes) / len(self.sizes)

    @property
    def max_ratio(self) -> float:
        return self.certificate.ratio_of(self.max_size)

    @property
    def mean_ratio(self) -> float:
        return self.mean_size / self.certificate.lower

    @property
    def within_envelope(self) -> bool:
        return self.max_ratio <= float(self.envelope)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "trials": len(self.sizes),
            "min_size": self.min_size,
            "mean_size": round(self.mean_size, 3),
            "max_size": self.max_size,
            "mean_ratio": round(self.mean_ratio, 4),
            "max_ratio": round(self.max_ratio, 4),
            "envelope": self.envelope,
            "within_envelope": self.within_envelope,
        }


def measure_ratios(
    graph: UnitDiskGraph,
    seeds: Sequence[int],
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    problem: str = "wcds",
    certificate: Optional[OptimalityCertificate] = None,
    exact_nodes: Optional[int] = None,
    lp: str = "auto",
    workers: Optional[int] = None,
    registry: Any = None,
    tracer: Any = None,
) -> Dict[str, AlgorithmRatios]:
    """Sweep ``algorithms`` over protocol ``seeds`` and rate each
    against one certificate for the shared topology.

    The certificate is computed once in the parent (pass one in to
    reuse across calls); only the cheap per-seed builds fan out to the
    fleet workers.  ``workers=0`` runs inline.
    """
    if not seeds:
        raise ValueError("no seeds given")
    if certificate is None:
        kwargs: Dict[str, Any] = {"lp": lp, "registry": registry, "tracer": tracer}
        if exact_nodes is not None:
            kwargs["exact_nodes"] = exact_nodes
        certificate = certified_optimum(graph, problem, **kwargs)
    results: Dict[str, AlgorithmRatios] = {}
    with _tracer_of(tracer).span(
        "opt.ratio_sweep", algorithms=len(algorithms), seeds=len(seeds)
    ):
        for name in algorithms:
            sizes = _sweep_sizes(
                graph, name, seeds, workers=workers, registry=registry,
            )
            results[name] = AlgorithmRatios(
                algorithm=name,
                sizes=sizes,
                certificate=certificate,
                envelope=THEOREM_ENVELOPES.get(name, ALGORITHM2_RATIO),
            )
    return results


def _sweep_sizes(
    graph: UnitDiskGraph,
    algorithm: str,
    seeds: Sequence[int],
    *,
    workers: Optional[int],
    registry: Any,
) -> List[int]:
    from repro.backbone import get
    from repro.sim.fleet import BackboneTrial, run_fleet

    trial = BackboneTrial(algorithm=algorithm)
    if not get(algorithm).distributed:
        # Deterministic: one build covers every seed.
        size = int(trial(graph, 0)["backbone"])
        return [size for _ in seeds]
    rows = run_fleet(graph, trial, seeds, workers=workers, registry=registry)
    return [int(row["backbone"]) for row in rows]


def ratio_report(
    graph: UnitDiskGraph,
    results: Mapping[str, AlgorithmRatios],
) -> Dict[str, Any]:
    """A JSON-ready ratio table (the CI artifact format)."""
    certificates = {
        ratios.certificate.problem: ratios.certificate.to_dict()
        for ratios in results.values()
    }
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "certificates": certificates,
        "algorithms": [
            results[name].to_dict() for name in sorted(results)
        ],
    }


def _tracer_of(tracer: Any) -> Any:
    if tracer is None:
        from repro.obs.tracing import NullTracer

        return NullTracer()
    return tracer
