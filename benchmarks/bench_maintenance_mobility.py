"""Experiment M1 — timed wrapper over repro.experiments.

See the experiment module for the claim and workload; this file times
`run`, prints the results table, and re-asserts the claim via `check`.
M1 maintains exact Algorithm II with `ShardedBackbone` under random
waypoint.  §4.2's 3-hop locality describes a local repair rule; exact
Algorithm II met it here (at most 2 hops), but on row-major
`jittered_grid(10000)` 86–95 of 480 moves of up to 0.3 R flipped nodes
more than 3 hops away (max 90–93 hops, seeds 0–2).
"""

from bench_utils import run_once, show
from repro.experiments import get

def test_m1_local_maintenance_under_mobility(benchmark):
    exp = get("M1")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)
