"""Topological and geometric dilation of a spanner (Section 3).

For a spanner G' of G and a pair of nodes u, v:

* **topological**: compare minimum hop counts, ``h'(u,v)`` vs
  ``h(u,v)``.  Theorem 11 proves ``h' ≤ 3·h + 2`` for Algorithm II's
  spanner (non-adjacent pairs).
* **geometric**: compare ``l'(u,v)`` — the *maximum* total Euclidean
  length over the minimum-hop paths in G' (the paper's definition: a
  position-less router cannot pick the geometrically shortest of them)
  — against ``l(u,v)``, the minimum-distance path length in G.
  Lemma 6 turns the hop bound into ``l' < 6·l + 5``.

``l'`` is computed exactly: one BFS per source over G' gives the
layered shortest-path DAG, and a dynamic program over it maximizes path
length — ``maxlen[x] = max over BFS-predecessors p of maxlen[p] +
|px|`` — which is the max length over *all* min-hop paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graphs.graph import Graph, canonical_order
from repro.graphs.traversal import bfs_distances, multi_source_hop_distances
from repro.graphs.udg import UnitDiskGraph
from repro.graphs.weighted import euclidean_shortest_path_lengths
from repro.wcds import bounds


@dataclass(frozen=True)
class DilationReport:
    """Worst-case dilation measurements over the evaluated pairs."""

    pairs_evaluated: int
    max_hop_ratio: float
    max_hop_slack: int  # max of h' - (3h + 2); bound holds iff <= 0
    worst_hop_pair: Optional[Tuple[Hashable, Hashable]]
    max_geo_ratio: float
    max_geo_slack: float  # max of l' - (6l + 5); bound holds iff <= 0
    worst_geo_pair: Optional[Tuple[Hashable, Hashable]]

    @property
    def hop_bound_holds(self) -> bool:
        """Theorem 11's hop bound held on every evaluated pair."""
        return self.max_hop_slack <= 0

    @property
    def geo_bound_holds(self) -> bool:
        """Theorem 11's length bound held on every evaluated pair."""
        return self.max_geo_slack <= 1e-9


def max_length_min_hop_paths(
    udg: UnitDiskGraph,
    spanner: Graph,
    source: Hashable,
    *,
    hops: Optional[Dict[Hashable, int]] = None,
) -> Tuple[Dict[Hashable, int], Dict[Hashable, float]]:
    """From ``source``: spanner hop distances and, per target, the
    maximum Euclidean length over the spanner's min-hop paths.

    ``hops`` may carry precomputed spanner hop distances from ``source``
    (e.g. one row of a vectorized multi-source sweep); when omitted a
    BFS runs here.
    """
    if hops is None:
        hops = bfs_distances(spanner, source)
    maxlen: Dict[Hashable, float] = {source: 0.0}
    by_layer: Dict[int, List[Hashable]] = {}
    for node, d in hops.items():
        by_layer.setdefault(d, []).append(node)
    for depth in sorted(by_layer):
        if depth == 0:
            continue
        for node in by_layer[depth]:
            pos = udg.positions[node]
            best = None
            for nbr in spanner.adjacency(node):
                if hops.get(nbr) == depth - 1:
                    candidate = maxlen[nbr] + pos.distance_to(udg.positions[nbr])
                    if best is None or candidate > best:
                        best = candidate
            maxlen[node] = best if best is not None else 0.0
    return hops, maxlen


def measure_dilation(
    udg: UnitDiskGraph,
    spanner: Graph,
    *,
    sources: Optional[Iterable[Hashable]] = None,
    include_adjacent: bool = False,
) -> DilationReport:
    """Worst-case topological and geometric dilation of ``spanner``.

    Evaluates all pairs with the given ``sources`` (default: every node
    — exact all-pairs).  Theorem 11 states its bounds for non-adjacent
    pairs; pass ``include_adjacent=True`` to evaluate adjacent pairs
    too (informative: the bound happens to hold for them as well).

    The UDG and spanner hop sweeps go through
    :func:`repro.graphs.traversal.multi_source_hop_distances`, which
    batches them on large graphs.  The geometric side (per-source
    Dijkstra and the max-length DP) is pure either way, and every hop
    engine yields the identical report.
    """
    node_list = list(udg.nodes())
    source_list = list(sources) if sources is not None else node_list
    udg_hops = multi_source_hop_distances(udg, source_list)
    spanner_hops = multi_source_hop_distances(spanner, source_list)
    pairs = 0
    max_hop_ratio = 0.0
    max_hop_slack = -(10**9)
    worst_hop: Optional[Tuple[Hashable, Hashable]] = None
    max_geo_ratio = 0.0
    max_geo_slack = float("-inf")
    worst_geo: Optional[Tuple[Hashable, Hashable]] = None
    for source in source_list:
        g_hops = udg_hops[source]
        g_len = euclidean_shortest_path_lengths(udg, source)
        s_hops, s_maxlen = max_length_min_hop_paths(
            udg, spanner, source, hops=spanner_hops[source]
        )
        # Canonical target order: the worst-pair tie-breaks must not
        # depend on which hop engine produced the dict.
        for target in canonical_order(g_hops):
            h = g_hops[target]
            if target == source:
                continue
            if h == 1 and not include_adjacent:
                continue
            if target not in s_hops:
                raise AssertionError(
                    f"spanner disconnects {source!r} from {target!r}"
                )
            pairs += 1
            h_prime = s_hops[target]
            hop_slack = h_prime - bounds.topological_dilation_bound(h)
            if h_prime / h > max_hop_ratio:
                max_hop_ratio = h_prime / h
            if hop_slack > max_hop_slack:
                max_hop_slack = hop_slack
                worst_hop = (source, target)
            length = g_len[target]
            length_prime = s_maxlen[target]
            geo_slack = length_prime - bounds.geometric_dilation_bound(length)
            if length > 1e-12 and length_prime / length > max_geo_ratio:
                max_geo_ratio = length_prime / length
            if geo_slack > max_geo_slack:
                max_geo_slack = geo_slack
                worst_geo = (source, target)
    return DilationReport(
        pairs_evaluated=pairs,
        max_hop_ratio=max_hop_ratio,
        max_hop_slack=max_hop_slack if pairs else 0,
        worst_hop_pair=worst_hop,
        max_geo_ratio=max_geo_ratio,
        max_geo_slack=max_geo_slack if pairs else 0.0,
        worst_geo_pair=worst_geo,
    )


def sampled_dilation(
    udg: UnitDiskGraph,
    spanner: Graph,
    num_sources: int,
    seed: Optional[int] = None,
) -> DilationReport:
    """Dilation from a random sample of sources (large-n benchmarks)."""
    rng = random.Random(seed)
    nodes = list(udg.nodes())
    num_sources = min(num_sources, len(nodes))
    return measure_dilation(udg, spanner, sources=rng.sample(nodes, num_sources))
