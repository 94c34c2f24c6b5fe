"""Command line of the layered benchmark.

Run one workload (or all four) and print every metric by name with its
unit and sample count; the last line of each workload's output is its
JSON summary.  Exits 1 when a correctness check fails::

    python3 benchmarks/suite/run.py --workload protocol-sim --seed 0 \
        [--seconds S] [--trace 0|1] [--out DIR] [--spans DIR]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``.  Callers of
the benchmark pass that value as ``--seconds``; any other value is
refused, so that every commit is measured for the same time, and each
result records it in its ``scale``, which ``compare`` requires to match.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics.  ``--out DIR``
writes ``DIR/BENCH_<workload>.json``; a second run of the same workload
and seed with the other ``--trace`` value fills in the other half of
that file.  ``--spans DIR`` writes a traced run's spans as JSONL to
``DIR/spans_<workload>.jsonl``.

Compare two sets of result files (exit 1 on a regression or a higher
error rate)::

    python3 benchmarks/suite/run.py compare PARENT.json... -- CHANGE.json...

The program is imported from ``src/`` of the checkout this file sits
in; the benchmark refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
WORKLOADS = ("protocol-sim", "shard-churn", "pool-zipf", "service-mixed")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program really comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def _module(workload: str):
    import pool_zipf
    import protocol_sim
    import service_mixed
    import shard_churn

    return {
        "protocol-sim": protocol_sim,
        "shard-churn": shard_churn,
        "pool-zipf": pool_zipf,
        "service-mixed": service_mixed,
    }[workload]


def _print(result) -> None:
    mode = "traced" if result.traced else "untraced"
    print(f"{result.workload} seed={result.seed} {mode}")
    for name, m in result.metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<6} samples={m['samples']}")
    passed = sum(result.checks.values())
    print(
        f"  checks {passed}/{len(result.checks)} passed; "
        f"operations attempted {result.attempted}, failed {result.failed}"
    )
    for name, ok in sorted(result.checks.items()):
        if not ok:
            print(f"  FAILED check {name}")
    for error in result.detail.get("errors", []):
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result.metrics.items()
        },
    }), flush=True)


def _write(out: Path, result, env: Dict[str, Any]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{result.workload}.json"
    record: Dict[str, Any] = {}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if (record.get("workload"), record.get("seed")) != (result.workload, result.seed):
            record = {}
    record.update({"workload": result.workload, "seed": result.seed, "env": env})
    record["per_layer" if result.traced else "end_to_end"] = result.record()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    spec = load_spec()
    _import_program()
    import harness

    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run; must be run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--out", type=Path, help="directory for BENCH_<workload>.json")
    parser.add_argument("--spans", type=Path, help="directory for a traced run's spans")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        # Run length belongs to the benchmark, the same on every commit.
        parser.error(f"--seconds must be {spec['run_seconds']}, the run_seconds "
                     f"of BENCHMARK.json")
    env = harness.environment()
    correct = True
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            try:
                result = _module(workload).run(args.seed, spec["run_seconds"], bool(args.trace))
            finally:
                harness.reap_children()
            harness.finish(result, spec)
            if args.spans is not None and result.traced:
                args.spans.mkdir(parents=True, exist_ok=True)
                result.spans.write_jsonl(str(args.spans / f"spans_{workload}.jsonl"))
            if args.out is not None:
                _write(args.out, result, env)
            _print(result)
            correct = correct and result.correct
    finally:
        harness.stop_resource_tracker()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
