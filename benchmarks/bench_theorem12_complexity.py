"""Experiments T12a, T12b, T12c — timed wrappers over repro.experiments.

See :mod:`repro.experiments.complexity` for the claims and workloads.
"""

from bench_utils import run_once, show
from repro.experiments import get


def test_theorem12_alg2_linear_messages(benchmark):
    exp = get("T12a")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_theorem12_payload_volume_vs_wu_li(benchmark):
    exp = get("T12b")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_theorem12_chain_time_is_linear(benchmark):
    exp = get("T12c")
    rows = run_once(benchmark, exp.run)
    show(f"{exp.experiment_id}: {exp.title}", rows)
    exp.check(rows)


def test_theorem12_message_envelope_over_fleet_sweep(benchmark):
    """Theorem 12's O(n) message envelope holds under a seeded sweep.

    Jittered latencies (a fresh UniformLatency per seed) perturb the
    schedule without changing the message *bound*: every seed's total
    must stay within a linear envelope of n, and the per-node maximum
    stays O(1).  Runs on the fleet runner (spawn workers over shared
    positions); the worker rows must equal the in-process lane's
    row-for-row.
    """
    import os

    import pytest

    from repro.graphs.generators import connected_random_udg
    from repro.sim.fleet import BackboneTrial, run_fleet

    if (os.cpu_count() or 1) < 2:
        pytest.skip("fleet sweep needs >= 2 CPUs")
    graph = connected_random_udg(120, side=5.5, seed=12)
    seeds = list(range(16))
    trial = BackboneTrial(algorithm="algorithm2", jitter=True)
    rows = run_once(
        benchmark, lambda: run_fleet(graph, trial, seeds, workers=2)
    )
    inline = run_fleet(graph, trial, seeds, workers=0)
    assert rows == inline, "worker fleet rows diverge from the in-process lane"
    n = graph.num_nodes
    for row in rows:
        assert row["messages"] <= 25 * n, (
            f"messages {row['messages']} exceed the linear envelope at n={n}"
        )
        assert row["max_per_node"] <= 30, (
            f"per-node messages {row['max_per_node']} not O(1)"
        )
    show(
        "T12 fleet sweep (16 jittered seeds, 2 workers vs the lane)",
        [
            {
                "n": n,
                "seeds": len(rows),
                "max_messages": max(r["messages"] for r in rows),
                "max_per_node": max(r["max_per_node"] for r in rows),
            }
        ],
    )
