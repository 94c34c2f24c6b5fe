"""Experiments M2, M3 — timed wrappers over repro.experiments.

Node on/off churn and mobility-model robustness of the maintenance
layer (`ShardedBackbone`, exact Algorithm II); see
:mod:`repro.experiments.churn`.  §4.2's 3-hop locality describes a
local repair rule; exact Algorithm II met it here (at most 3 hops under
churn, 2 under mobility), but on row-major `jittered_grid(10000)`
86–95 of 480 moves of up to 0.3 R flipped nodes more than 3 hops away
(max 90–93 hops, seeds 0–2).
"""

from bench_utils import run_once, show
from repro.experiments import get


def test_m2_maintenance_under_churn(benchmark):
    exp = get("M2")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_m3_maintenance_across_mobility_models(benchmark):
    exp = get("M3")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_m4_distributed_maintenance_convergence(benchmark):
    exp = get("M4")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)
