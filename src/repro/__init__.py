"""repro — Weakly-Connected Dominating Sets and Sparse Spanners in
Wireless Ad Hoc Networks.

A full reproduction of Alzoubi, Wan & Frieder (ICDCS 2003): unit-disk
graph model, distributed MIS construction, the two WCDS algorithms with
their sparse spanners, dilation and sparsity measurement, clusterhead
routing, baselines, and mobility maintenance.

Quickstart::

    from repro import connected_random_udg, algorithm2_distributed

    network = connected_random_udg(num_nodes=200, side=10.0, seed=7)
    wcds = algorithm2_distributed(network)
    backbone = wcds.dominators          # the virtual backbone
    spanner = wcds.spanner(network)     # the black-edge sparse spanner
"""

from repro.graphs import (
    Graph,
    UnitDiskGraph,
    build_udg,
    clustered_udg,
    connected_random_udg,
    grid_udg,
    line_udg,
    paper_figure2_udg,
    perturbed_grid_udg,
    uniform_random_udg,
)
from repro.mis import (
    greedy_mis,
    is_dominating_set,
    is_independent_set,
    is_maximal_independent_set,
)
from repro.wcds import (
    WCDSResult,
    algorithm1_centralized,
    algorithm1_distributed,
    algorithm2_centralized,
    algorithm2_distributed,
    is_weakly_connected_dominating_set,
    weakly_induced_subgraph,
)
from repro.spanner import measure_dilation, sampled_dilation, sparsity_report
from repro.routing import (
    ClusterheadRouter,
    backbone_broadcast,
    blind_flood,
    spanner_route,
)
from repro.election import elect_leader
from repro.mobility import RandomWaypointModel
from repro.obs import (
    MessageCostReport,
    MetricsRegistry,
    Tracer,
    get_tracer,
    measure_message_costs,
    set_tracer,
)
from repro.service import BackboneService, ServiceConfig

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "UnitDiskGraph",
    "build_udg",
    "clustered_udg",
    "connected_random_udg",
    "grid_udg",
    "line_udg",
    "paper_figure2_udg",
    "perturbed_grid_udg",
    "uniform_random_udg",
    "greedy_mis",
    "is_dominating_set",
    "is_independent_set",
    "is_maximal_independent_set",
    "WCDSResult",
    "algorithm1_centralized",
    "algorithm1_distributed",
    "algorithm2_centralized",
    "algorithm2_distributed",
    "is_weakly_connected_dominating_set",
    "weakly_induced_subgraph",
    "measure_dilation",
    "sampled_dilation",
    "sparsity_report",
    "ClusterheadRouter",
    "backbone_broadcast",
    "blind_flood",
    "spanner_route",
    "elect_leader",
    "RandomWaypointModel",
    "BackboneService",
    "ServiceConfig",
    "MessageCostReport",
    "MetricsRegistry",
    "Tracer",
    "get_tracer",
    "measure_message_costs",
    "set_tracer",
    "__version__",
]
