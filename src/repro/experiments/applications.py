"""Experiments C1/C1b/R1/B1 — comparisons and applications.

C1: backbone sizes across all algorithms.  C1b: ranking ablation.
R1: clusterhead routing stretch (§4.2).  B1: backbone broadcasting.
"""

from __future__ import annotations

import random

from repro.baselines import greedy_cds, greedy_wcds, mis_tree_cds, wu_li_cds
from repro.experiments.base import Rows, checker, register
from repro.geometry.packing import mis_neighbors_bound
from repro.graphs import connected_random_udg, hop_distance
from repro.mis import greedy_mis, greedy_mis_dynamic_degree
from repro.routing import (
    ClusterheadRouter,
    backbone_broadcast,
    blind_flood,
    spanner_route,
)
from repro.wcds import (
    algorithm1_centralized,
    algorithm2_distributed,
    bounds,
)


@register(
    "C1",
    "Backbone sizes, n=150 (paper shape: MIS-WCDS < MIS-tree CDS; "
    "WCDS constructions < localized CDS)",
    "Relaxing connectivity to weak connectivity buys backbone size.",
)
def run_comparison() -> Rows:
    rows = []
    n = 150
    for side in (9.0, 7.0, 5.5):
        g = connected_random_udg(n, side, seed=4)
        rows.append(
            {
                "avg_deg": round(2 * g.num_edges / n, 1),
                "alg1_wcds": algorithm1_centralized(g).size,
                "alg2_wcds": algorithm2_distributed(g).size,
                "greedy_wcds": greedy_wcds(g).size,
                "mis_tree_cds": len(mis_tree_cds(g)),
                "greedy_cds": len(greedy_cds(g)),
                "wu_li_cds": len(wu_li_cds(g)),
            }
        )
    return rows


@checker("C1")
def check_comparison(rows: Rows) -> None:
    for row in rows:
        assert row["alg1_wcds"] <= row["mis_tree_cds"]
        assert row["alg1_wcds"] <= row["alg2_wcds"]
        assert row["wu_li_cds"] >= row["alg1_wcds"]
        assert row["greedy_wcds"] <= row["alg1_wcds"] + 3


@register(
    "C1b",
    "MIS size by ranking (ablation of Section 2.2 rankings)",
    "All rankings produce MISs within the same 5*opt envelope.",
)
def run_ranking_ablation() -> Rows:
    rows = []
    for seed in range(5):
        g = connected_random_udg(120, 7.0, seed=seed)
        rows.append(
            {
                "seed": seed,
                "levelrank_mis": algorithm1_centralized(g).size,
                "idrank_mis": len(greedy_mis(g)),
                "degreerank_mis": len(greedy_mis_dynamic_degree(g)),
            }
        )
    return rows


@checker("C1b")
def check_ranking_ablation(rows: Rows) -> None:
    for row in rows:
        sizes = [row["levelrank_mis"], row["idrank_mis"], row["degreerank_mis"]]
        # Any two MIS sizes are within Lemma 1's packing factor: each
        # node of one MIS is dominated by the other, and a dominator
        # covers at most five independent points.
        assert max(sizes) <= mis_neighbors_bound() * min(sizes)


def _routing_trial(n, side, seed, pairs=150):
    g = connected_random_udg(n, side, seed=seed)
    result = algorithm2_distributed(g)
    router = ClusterheadRouter(g, result)
    rng = random.Random(seed)
    nodes = sorted(g.nodes())
    stretches = []
    reference_gap = 0
    worst_slack = -(10**9)
    for _ in range(pairs):
        src, dst = rng.sample(nodes, 2)
        path = router.route(src, dst)
        router.validate_path(path)
        h = hop_distance(g, src, dst)
        routed = len(path) - 1
        stretches.append(routed / h)
        worst_slack = max(worst_slack, routed - bounds.topological_dilation_bound(h))
        reference = spanner_route(g, result, src, dst)
        reference_gap = max(reference_gap, routed - (len(reference) - 1))
    return {
        "n": n,
        "avg_deg": round(2 * g.num_edges / n, 1),
        "pairs": pairs,
        "mean_stretch": sum(stretches) / len(stretches),
        "worst_stretch": max(stretches),
        "worst_slack_vs_3h+2": worst_slack,
        "worst_gap_vs_minhop": reference_gap,
    }


@register(
    "R1",
    "Clusterhead routing stretch over the WCDS spanner "
    "(paper bound: hops <= 3h+2)",
    "Section 4.2 routing delivers over black edges within the bound.",
)
def run_routing() -> Rows:
    return [
        _routing_trial(80, 6.0, seed=1),
        _routing_trial(150, 8.0, seed=2),
        _routing_trial(250, 10.0, seed=3),
    ]


@checker("R1")
def check_routing(rows: Rows) -> None:
    for row in rows:
        assert row["worst_slack_vs_3h+2"] <= 0
        assert row["mean_stretch"] < 2.5
        assert row["worst_gap_vs_minhop"] <= 6


@register(
    "B1",
    "Broadcast transmissions, n=300 (blind flooding vs WCDS backbone)",
    "Section 1: broadcasting only needs the backbone to retransmit.",
)
def run_broadcast() -> Rows:
    rows = []
    n = 300
    for side in (11.0, 8.0, 6.0, 5.0):
        g = connected_random_udg(n, side, seed=6)
        result = algorithm2_distributed(g)
        flood = blind_flood(g, 0)
        backbone = backbone_broadcast(g, result, 0)
        rows.append(
            {
                "avg_deg": round(2 * g.num_edges / n, 1),
                "U": result.size,
                "flood_tx": flood.transmissions,
                "backbone_tx": backbone.transmissions,
                "saving": 1 - backbone.transmissions / flood.transmissions,
                "coverage": backbone.full_coverage,
            }
        )
    return rows


@checker("B1")
def check_broadcast(rows: Rows) -> None:
    for row in rows:
        assert row["coverage"]
        assert row["backbone_tx"] < row["flood_tx"]
    savings = [row["saving"] for row in rows]
    assert savings[-1] > savings[0]
    assert savings[-1] > 0.4
