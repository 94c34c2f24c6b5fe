"""Node ranking schemes (Section 2.2 of the paper).

A *rank* is a unique, totally ordered identifier used to break ties when
building a maximal independent set.  The paper distinguishes *static*
ranks, fixed for the whole construction (the node id), from *dynamic*
ranks that evolve as nodes are marked (white-degree then id, see
:func:`repro.mis.centralized.greedy_mis_dynamic_degree`).  The
level-based rank ``(tree level, id)`` is the one that makes the MIS a
WCDS (Theorems 4 and 5).

A ranking here is a dict mapping every node to its int position in one
sort, 0 lowest.  This module is the only place one is built.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Mapping

from repro.graphs.graph import Graph


def rank_by(nodes: Iterable[Hashable], key: Callable = None) -> Dict[Hashable, int]:
    """Number ``nodes`` 0..n-1 in ``(key(node), node)`` order, or by id
    alone with no ``key``.  Ids that do not compare raise ``TypeError``."""
    order = sorted(nodes) if key is None else sorted(nodes, key=lambda n: (key(n), n))
    return {node: pos for pos, node in enumerate(order)}


def id_ranking(graph: Graph) -> Dict[Hashable, int]:
    """Static ranking by node id alone (Algorithm II's ranking)."""
    return rank_by(graph.nodes())


def level_ranking(graph: Graph, levels: Mapping[Hashable, int]) -> Dict[Hashable, int]:
    """Level-based ranking ``(level, id)`` (Algorithm I's ranking).

    ``levels`` maps each node to its depth in a spanning tree rooted at
    the leader; the root is ranked lowest.
    """
    missing = set(graph.nodes()) - set(levels)
    if missing:
        raise ValueError(f"levels missing for nodes: {sorted(map(repr, missing))}")
    return rank_by(graph.nodes(), levels.__getitem__)


def validate_ranking(graph: Graph, ranking: Mapping[Hashable, int]) -> None:
    """Check the ranking covers every node and is injective."""
    missing = set(graph.nodes()) - set(ranking)
    if missing:
        raise ValueError(f"ranking missing nodes: {sorted(map(repr, missing))}")
    if len(set(ranking.values())) != len(ranking):
        raise ValueError("ranking is not injective: ranks must be unique")
