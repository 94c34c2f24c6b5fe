"""Tiny-scale runs of every workload of the layered benchmark.

Each workload function is called directly at about 300 nodes and at
most 200 operations, untraced and traced.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/suite -x
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import harness
import pool_zipf
import protocol_sim
import run
import service_mixed
import shard_churn

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
MODULES = [protocol_sim, shard_churn, pool_zipf, service_mixed]
SECONDS = 0.5
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """Per workload: its untraced and its traced result, each held to
    ``BENCHMARK.json``."""
    out = {}
    try:
        for module in MODULES:
            pair = []
            for traced in (False, True):
                result = module.run(SEED, SECONDS, traced, module.SMOKE)
                harness.finish(result, SPEC)
                pair.append(result)
            out[module.NAME] = pair
    finally:
        harness.reap_children()
    return out


@pytest.mark.parametrize("name", [m.NAME for m in MODULES])
def test_every_check_passes_and_nothing_fails(runs, name):
    for result in runs[name]:
        assert result.correct, (result.checks, result.detail.get("errors"))
        assert result.attempted > 0
        assert result.record()["error_rate"] == 0


@pytest.mark.parametrize("name", [m.NAME for m in MODULES])
def test_untraced_run_reports_every_end_to_end_metric(runs, name):
    metrics = runs[name][0].record()["metrics"]
    assert sorted(metrics) == sorted(e["name"] for e in SPEC["end_to_end"])
    for entry in SPEC["end_to_end"]:
        metric = metrics[entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["samples"] >= 1
        assert metric["value"] > 0


@pytest.mark.parametrize("name", [m.NAME for m in MODULES])
def test_traced_run_reports_every_per_layer_metric(runs, name):
    metrics = runs[name][1].record()["metrics"]
    assert sorted(metrics) == sorted(e["name"] for e in SPEC["per_layer"])
    for entry in SPEC["per_layer"]:
        metric = metrics[entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["samples"] >= 0
        if entry["unit"] in harness.TIME_SCALE:
            assert metric["value"] > 0
    assert metrics["trace.coverage"]["value"] > 0.9


@pytest.mark.parametrize("name", [m.NAME for m in MODULES])
def test_traced_spans_are_fully_parented(runs, name):
    records = runs[name][1].spans.records
    ids = {r["span_id"] for r in records}
    assert len(ids) == len(records)
    assert [r["name"] for r in records if r["parent_id"] is None] == ["harness.run"]
    assert all(r["parent_id"] in ids for r in records if r["parent_id"] is not None)
    assert all(r["start"] <= r["end"] for r in records)
    assert {r["trace_id"] for r in records} == {f"{name}-{SEED}"}


@pytest.mark.parametrize("name", [m.NAME for m in MODULES])
def test_exact_counts_repeat_between_untraced_and_traced_runs(runs, name):
    untraced, traced = runs[name]
    assert untraced.invariants
    shared = set(untraced.invariants) & set(traced.invariants)
    assert shared
    assert {k: untraced.invariants[k] for k in shared} == {
        k: traced.invariants[k] for k in shared
    }


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


#: One call per workload that is made to raise: the failure must be
#: counted and the run must still report every metric.
FAILURES = [
    (protocol_sim, protocol_sim, "algorithm1_distributed"),
    (shard_churn, shard_churn.ShardedBackbone, "apply_move"),
    (pool_zipf, pool_zipf.ShardServePool, "move"),
    (pool_zipf, pool_zipf.ShardServePool, "query_batch"),
    (service_mixed, service_mixed.BackboneService, "move"),
]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "module, owner, attr", FAILURES, ids=[f"{m.NAME}-{a}" for m, _, a in FAILURES]
)
def test_a_raising_operation_is_counted_not_fatal(monkeypatch, module, owner, attr, traced):
    monkeypatch.setattr(owner, attr, _raise)
    try:
        result = module.run(SEED, SECONDS, traced, module.SMOKE)
    finally:
        harness.reap_children()
    harness.finish(result, SPEC)
    assert result.failed > 0
    assert not result.correct
    assert "injected failure" in result.detail["errors"][0]
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert sorted(result.record()["metrics"]) == sorted(e["name"] for e in wanted)


def test_shard_churn_equals_the_centralized_oracle_at_small_size(runs):
    for result in runs["shard-churn"]:
        assert result.checks["first_build_equals_centralized"]
        assert result.checks["final_equals_centralized"]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [10.05] * 10, "lower", "unchanged"),
        ([10.0] * 10, [12.0] * 10, "lower", "regressed"),
        ([10.0] * 10, [8.0] * 10, "lower", "improved"),
        ([10.0] * 10, [8.0] * 10, "higher", "regressed"),
        ([8, 9, 10, 11, 12, 8, 9, 10, 11, 12], [10.0] * 10, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, 0.1, better) == expected


def test_compare_flags_moved_counts_as_behaviour_change():
    def record(hops):
        return {"workload": "pool-zipf", "seed": 0,
                "end_to_end": {"invariants": {"pool.route_hops": hops}}}

    assert compare._behaviour([record(5), record(5)]) == []
    assert len(compare._behaviour([record(5), record(6)])) == 1


def test_compare_refuses_results_of_different_scales():
    def record(seconds):
        return {"workload": "shard-churn", "end_to_end": {"scale": {"seconds": seconds}}}

    assert compare._scales([record(25), record(25)]) == []
    assert len(compare._scales([record(25), record(5)])) == 1


def test_run_length_is_fixed_by_the_benchmark():
    with pytest.raises(SystemExit) as exit_:
        run.main(["--workload", "shard-churn", "--seed", "0",
                  "--seconds", str(SPEC["run_seconds"] + 1)])
    assert exit_.value.code == 2
