"""Optimality oracles: how far from optimal are the backbones, really?

The paper proves Algorithm I within 5·opt (Theorem 5) and Algorithm II
within 240·opt (Theorem 10) — worst-case envelopes, not measurements.
This package supplies the missing denominator:

* **LP-strengthened exact search** (:mod:`repro.opt.exact`) — a bitset
  branch & bound for minimum dominating set / WCDS / CDS whose
  admissible pruning bounds include the fractional set-cover LP solved
  by :mod:`scipy.optimize` (:mod:`repro.opt.lp`), pushing certified
  optima from the n ≈ 18 of :mod:`repro.baselines.exact` to n ≈ 60 on
  the benchmark densities.  The LP only *prunes* — results are
  bit-identical with ``lp="on"`` and ``lp="off"``.
* **Scalable heuristics** (:mod:`repro.opt.heuristics`) — vectorized
  greedy MWDS over the CSR layer, 2-hop packing lower bounds, and
  2-hop Steiner connection, sandwiching the optimum to n ≈ 2000+.
* **Certificates** (:mod:`repro.opt.oracle`) —
  :func:`certified_optimum` picks the strongest engine the instance
  allows and returns a proven ``lower <= opt <= upper`` sandwich.
* **Ratio measurement** (:mod:`repro.opt.ratio`) — seed sweeps of the
  registry algorithms (:class:`~repro.sim.fleet.BackboneTrial` on
  :func:`~repro.sim.fleet.run_fleet`), divided by the certificate lower
  bound: the *real* empirical ratios, reported conservatively.

scipy is optional (``pip install repro[opt]``): without it the exact
engine still runs combinatorially-pruned (``lp="auto"`` degrades), and
``lp="on"`` raises :class:`LPUnavailableError`.
"""

from repro.opt._scipy import (
    HAVE_SCIPY,
    LPUnavailableError,
    require_scipy,
    resolve_lp,
)
from repro.opt.exact import (
    PROBLEMS,
    SearchLimitExceeded,
    SearchStats,
    opt_minimum,
    opt_minimum_cds,
    opt_minimum_dominating_set,
    opt_minimum_wcds,
)
from repro.opt.heuristics import (
    connect_weakly,
    greedy_mwds,
    greedy_mwds_wcds,
    packing_lower_bound,
    two_hop_packing,
)
from repro.opt.lp import (
    LP_TOLERANCE,
    fractional_domination,
    lp_domination_bound,
    lp_lower_bound,
)
from repro.opt.oracle import (
    BASELINE_ORACLE_NODES,
    DEFAULT_EXACT_NODES,
    OptimalityCertificate,
    certified_optimum,
)
from repro.opt.ratio import (
    AlgorithmRatios,
    THEOREM_ENVELOPES,
    measure_ratios,
    ratio_report,
)

__all__ = [
    "AlgorithmRatios",
    "BASELINE_ORACLE_NODES",
    "DEFAULT_EXACT_NODES",
    "HAVE_SCIPY",
    "LPUnavailableError",
    "LP_TOLERANCE",
    "OptimalityCertificate",
    "PROBLEMS",
    "SearchLimitExceeded",
    "SearchStats",
    "THEOREM_ENVELOPES",
    "certified_optimum",
    "connect_weakly",
    "fractional_domination",
    "greedy_mwds",
    "greedy_mwds_wcds",
    "lp_domination_bound",
    "lp_lower_bound",
    "measure_ratios",
    "opt_minimum",
    "opt_minimum_cds",
    "opt_minimum_dominating_set",
    "opt_minimum_wcds",
    "packing_lower_bound",
    "ratio_report",
    "two_hop_packing",
]
