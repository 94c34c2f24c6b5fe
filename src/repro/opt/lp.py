"""LP relaxations of minimum (weakly connected) domination.

The integer program for a minimum dominating set is the classic set
cover over closed neighborhoods::

    min  sum_v x_v
    s.t. sum_{v in N[u]} x_v >= 1   for every node u
         0 <= x_v <= 1

Its fractional optimum is an *admissible* lower bound for |MDS| — and,
since every WCDS and CDS is in particular dominating, for |MWCDS| and
|MCDS| too (Guha–Khuller-style set-cover bounding).  The branch & bound
in :mod:`repro.opt.exact` re-solves the relaxation at search nodes,
restricted to the still-undominated rows and the not-yet-banned
columns, and strengthened with *component-touch* rows: once a partial
solution has ``c >= 2`` weakly-induced components, any completion must
place at least one **new** node within reach of each component (within
two hops for WCDS, adjacent for CDS), which is one extra covering row
per component.

Everything here is expressed over :class:`repro.opt.bitset.BitsetGraph`
masks; :func:`lp_domination_bound` is the graph-level convenience used
by tests and docs.  scipy is imported lazily through
:func:`repro.opt._scipy.require_scipy` so the module imports cleanly
without it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.opt._scipy import require_scipy
from repro.opt.bitset import BitsetGraph, iter_bits

#: Fractional slack below which an LP value is trusted as a bound:
#: ``ceil(value - LP_TOLERANCE)`` never over-prunes on solver noise.
LP_TOLERANCE = 1e-6

#: linprog failure (infeasible restricted LP = no completion exists).
INFEASIBLE = math.inf


def fractional_domination(
    bitset_graph: BitsetGraph,
    undominated: Optional[int] = None,
    banned: int = 0,
    touch_rows: Sequence[int] = (),
) -> float:
    """Fractional optimum of the restricted domination LP.

    ``undominated`` masks the rows (default: every node), ``banned``
    masks columns out (already-selected nodes must not be re-bought),
    and each entry of ``touch_rows`` is an extra covering row — a mask
    of candidate columns of which at least one must be picked (the
    component-touch cuts).  Returns :data:`INFEASIBLE` when some row
    has no remaining column.
    """
    optimize = require_scipy()
    rows_mask = bitset_graph.full if undominated is None else undominated
    candidates = iter_bits(bitset_graph.full & ~banned)
    if not candidates:
        return INFEASIBLE if rows_mask or touch_rows else 0.0
    column = {node: j for j, node in enumerate(candidates)}
    rows: List[List[float]] = []
    for u in iter_bits(rows_mask):
        row = [0.0] * len(candidates)
        hit = False
        for v in iter_bits(bitset_graph.closed[u] & ~banned):
            row[column[v]] = -1.0
            hit = True
        if not hit:
            return INFEASIBLE
        rows.append(row)
    for touch in touch_rows:
        row = [0.0] * len(candidates)
        hit = False
        for v in iter_bits(touch & ~banned):
            row[column[v]] = -1.0
            hit = True
        if not hit:
            return INFEASIBLE
        rows.append(row)
    if not rows:
        return 0.0
    result = optimize.linprog(
        np.ones(len(candidates)),
        A_ub=np.array(rows),
        b_ub=-np.ones(len(rows)),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        return INFEASIBLE
    return float(result.fun)


def lp_lower_bound(value: float) -> int:
    """The integral lower bound an LP value certifies."""
    if math.isinf(value):
        raise ValueError("infeasible LP certifies no bound")
    return max(0, math.ceil(value - LP_TOLERANCE))


def lp_domination_bound(graph: Graph) -> float:
    """Fractional domination number of ``graph``.

    Admissible lower bound on |MDS| <= |MWCDS| <= |MCDS|; the property
    tests assert it never exceeds the integral optimum.
    """
    if graph.num_nodes == 0:
        return 0.0
    return fractional_domination(BitsetGraph.from_graph(graph))
