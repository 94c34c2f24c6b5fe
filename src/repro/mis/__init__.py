"""Maximal independent sets: rankings, constructions, and the paper's
structural properties (Section 2)."""

from repro.mis.ranking import (
    degree_ranking,
    id_ranking,
    level_ranking,
    validate_ranking,
)
from repro.mis.centralized import (
    greedy_mis,
    greedy_mis_dynamic_degree,
    mis_coloring,
)
from repro.mis.distributed import MisNode, run_mis
from repro.mis.properties import (
    brute_force_subset_distance_check,
    complementary_subsets_within,
    is_dominating_set,
    is_independent_set,
    is_maximal_independent_set,
    lemma2_extrema,
    max_mis_neighbors,
    min_pairwise_mis_distance,
    mis_neighbor_counts,
    mis_nodes_at_exactly_two_hops,
    mis_nodes_within_three_hops,
    mis_overlay_graph,
)

__all__ = [
    "degree_ranking",
    "id_ranking",
    "level_ranking",
    "validate_ranking",
    "greedy_mis",
    "greedy_mis_dynamic_degree",
    "mis_coloring",
    "MisNode",
    "run_mis",
    "brute_force_subset_distance_check",
    "complementary_subsets_within",
    "is_dominating_set",
    "is_independent_set",
    "is_maximal_independent_set",
    "lemma2_extrema",
    "max_mis_neighbors",
    "min_pairwise_mis_distance",
    "mis_neighbor_counts",
    "mis_nodes_at_exactly_two_hops",
    "mis_nodes_within_three_hops",
    "mis_overlay_graph",
]
