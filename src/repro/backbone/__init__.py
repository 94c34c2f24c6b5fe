"""One front door for every backbone construction in the repo.

``build(name, graph, *, tracer=None, registry=None, sim=None)`` runs
any registered algorithm — the paper's Algorithms I/II, their
centralized references, the bare MIS, or a baseline — and always
returns a :class:`~repro.wcds.base.BackboneResult`.
"""

from repro.backbone.registry import (
    BackboneAlgorithm,
    CentralizedAlgorithm,
    DistributedAlgorithm,
    as_backbone_result,
    build,
    get,
    names,
    register,
)
from repro.wcds.base import BackboneResult

import repro.backbone.adapters  # noqa: F401  (registers the built-ins)

__all__ = [
    "BackboneAlgorithm",
    "BackboneResult",
    "CentralizedAlgorithm",
    "DistributedAlgorithm",
    "as_backbone_result",
    "build",
    "get",
    "names",
    "register",
]
