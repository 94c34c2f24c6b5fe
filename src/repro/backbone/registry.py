"""The unified backbone-algorithm registry.

Every backbone construction in the repo — the paper's Algorithms I and
II, their centralized references, the bare distributed MIS, and the
comparison baselines — is reachable here under a stable string name,
behind one calling convention:

    result = build("algorithm2", graph, sim=SimConfig(seed=7, transport=True))

Every entry point takes the same keyword-only ``tracer``, ``registry``
and ``sim`` arguments and returns a :class:`repro.wcds.base.BackboneResult`.
Centralized algorithms ignore the seed (they are deterministic) and
reject fault/transport options, which only make sense in a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.graphs.graph import Graph
from repro.sim.config import SimConfig
from repro.wcds.base import BackboneResult, WCDSResult


@runtime_checkable
class BackboneAlgorithm(Protocol):
    """The protocol every registered backbone algorithm satisfies."""

    name: str
    description: str
    distributed: bool

    def run(
        self,
        graph: Graph,
        *,
        tracer: Any = None,
        registry: Any = None,
        sim: Optional[SimConfig] = None,
    ) -> BackboneResult:
        """Build a backbone of ``graph`` and return the common result."""
        ...  # pragma: no cover - protocol declaration


def as_backbone_result(result: Any, name: str) -> BackboneResult:
    """Coerce an algorithm's native return value to a BackboneResult.

    Accepts a BackboneResult (algorithm name filled in when missing), a
    plain :class:`WCDSResult`, a bare dominator set, or a
    ``(set, stats)`` tuple as returned by the distributed baselines.
    """
    meta: Dict[str, object] = {}
    if isinstance(result, tuple) and len(result) == 2:
        result, stats = result
        meta["stats"] = stats
    if isinstance(result, BackboneResult):
        if result.algorithm != name:
            result = replace(result, algorithm=name)
        return result
    if isinstance(result, WCDSResult):
        return BackboneResult(
            dominators=result.dominators,
            mis_dominators=result.mis_dominators,
            additional_dominators=result.additional_dominators,
            meta=dict(result.meta),
            algorithm=name,
        )
    if isinstance(result, (set, frozenset)):
        members = frozenset(result)
        return BackboneResult(
            dominators=members,
            mis_dominators=members,
            meta=meta,
            algorithm=name,
        )
    raise TypeError(
        f"algorithm {name!r} returned unsupported type {type(result).__name__}"
    )


@dataclass(frozen=True)
class DistributedAlgorithm:
    """Adapter for message-passing entry points with the unified
    keyword signature."""

    name: str
    fn: Callable[..., Any]
    description: str = ""
    distributed: bool = True

    def run(
        self,
        graph: Graph,
        *,
        tracer: Any = None,
        registry: Any = None,
        sim: Optional[SimConfig] = None,
    ) -> BackboneResult:
        result = self.fn(graph, tracer=tracer, registry=registry, sim=sim)
        return as_backbone_result(result, self.name)


@dataclass(frozen=True)
class CentralizedAlgorithm:
    """Adapter for deterministic, whole-graph reference algorithms."""

    name: str
    fn: Callable[[Graph], Any]
    description: str = ""
    distributed: bool = False

    def run(
        self,
        graph: Graph,
        *,
        tracer: Any = None,
        registry: Any = None,
        sim: Optional[SimConfig] = None,
    ) -> BackboneResult:
        if sim is not None and (sim.faulty or sim.transport):
            raise ValueError(
                f"{self.name} is centralized; faults and transport only "
                "apply to distributed simulations"
            )
        return as_backbone_result(self.fn(graph), self.name)


_REGISTRY: Dict[str, BackboneAlgorithm] = {}


def register(algorithm: BackboneAlgorithm) -> BackboneAlgorithm:
    """Register ``algorithm`` under ``algorithm.name`` (last wins)."""
    _REGISTRY[algorithm.name] = algorithm
    return algorithm


def get(name: str) -> BackboneAlgorithm:
    """Look up a registered algorithm; raises KeyError with the valid
    names on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backbone algorithm {name!r}; known: {', '.join(names())}"
        ) from None


def names(*, distributed: Optional[bool] = None) -> Tuple[str, ...]:
    """Registered algorithm names, optionally filtered by kind."""
    return tuple(
        sorted(
            name
            for name, algo in _REGISTRY.items()
            if distributed is None or algo.distributed == distributed
        )
    )


def build(
    name: str,
    graph: Graph,
    *,
    tracer: Any = None,
    registry: Any = None,
    sim: Optional[SimConfig] = None,
) -> BackboneResult:
    """Build a backbone with the named algorithm — the one front door."""
    return get(name).run(graph, tracer=tracer, registry=registry, sim=sim)
