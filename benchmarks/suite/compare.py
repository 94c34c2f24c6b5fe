"""``run.py compare``: two sets of result files, one verdict per metric.

For every (workload, end-to-end metric) pair the parent and change runs
are summarised by median and quartiles, and judged as follows:

* *improved*: the change wins at least 9 of every 10 runs paired in the
  order given (ties count for neither side), and the medians differ by
  more than the parent's interquartile range;
* *regressed*: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* *unresolved*: either side's interquartile range, as a share of its
  median, exceeds the bound, unless every change run beats every parent
  run;
* *unchanged*: otherwise.

Counts that must repeat exactly for one workload and seed (message and
delivery counts, backbone sizes, stitch rounds, tiles rebuilt, route
hops) are compared across every file; any difference is reported as
"behaviour changed", apart from the timing verdicts.

Files of one workload must share their ``scale`` (run length, sizes,
ratios); compare refuses to judge timings measured at different scales.

The exit status is 1 on any regression or any rise of the error rate.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from harness import quantile


def _load(paths: List[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if "end_to_end" not in record:
            raise SystemExit(f"{path}: no end-to-end section (run with --trace 0)")
        records.append(record)
    return records


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def verdict(parent: List[float], change: List[float], bound: float, better: str) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p25, pm, p75 = _quartiles(parent)
    c25, cm, c75 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > p75 - p25:
        return "improved"
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    spread = max((p75 - p25) / abs(pm) if pm else 0.0, (c75 - c25) / abs(cm) if cm else 0.0)
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "improved"
        return "unresolved"
    return "unchanged"


def _behaviour(records: List[Dict[str, Any]]) -> List[str]:
    """Invariant counts that differ between runs of one workload and seed."""
    groups: Dict[Tuple[str, int], List[Dict[str, Any]]] = defaultdict(list)
    for record in records:
        key = (record["workload"], record["seed"])
        groups[key].append(record["end_to_end"]["invariants"])
    drift = []
    for (workload, seed), runs in sorted(groups.items()):
        for name in sorted({key for run in runs for key in run}):
            values = {json.dumps(run.get(name)) for run in runs}
            if len(values) > 1:
                drift.append(f"{workload} seed={seed} {name}: {sorted(values)}")
    return drift


def _scales(records: List[Dict[str, Any]]) -> List[str]:
    """Workloads whose files were run at different scales (run length,
    sizes, ratios): their timings cannot be compared."""
    groups: Dict[str, set] = defaultdict(set)
    for record in records:
        groups[record["workload"]].add(json.dumps(record["end_to_end"]["scale"], sort_keys=True))
    return [f"{workload}: {sorted(scales)}"
            for workload, scales in sorted(groups.items()) if len(scales) > 1]


def _error_rate(records: List[Dict[str, Any]]) -> float:
    attempted = sum(r["end_to_end"]["attempted"] for r in records)
    failed = sum(r["end_to_end"]["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def main(argv: List[str], spec: Dict[str, Any]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: run.py compare PARENT.json... -- CHANGE.json...")
    split = argv.index("--")
    parent, change = _load(argv[:split]), _load(argv[split + 1:])
    if not parent or not change:
        raise SystemExit("compare needs at least one file on each side of --")
    mixed = _scales(parent + change)
    if mixed:
        raise SystemExit("results of different scales:\n  " + "\n  ".join(mixed))
    failed = False
    print(f"{'workload':<14} {'metric':<11} {'parent q1/median/q3':>30} "
          f"{'change q1/median/q3':>30}  verdict")
    for workload in sorted({r["workload"] for r in parent + change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            print(f"{workload:<14} missing on one side")
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            p = [r["end_to_end"]["metrics"][name]["value"] for r in p_runs]
            c = [r["end_to_end"]["metrics"][name]["value"] for r in c_runs]
            result = verdict(p, c, entry["bound"], entry["better"])
            failed = failed or result == "regressed"
            print(f"{workload:<14} {name:<11} "
                  f"{'/'.join(f'{v:.4g}' for v in _quartiles(p)):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in _quartiles(c)):>30}  {result}")
        p_err, c_err = _error_rate(p_runs), _error_rate(c_runs)
        if c_err > p_err:
            failed = True
            print(f"{workload:<14} error rate rose from {p_err:.4g} to {c_err:.4g}")
    for line in _behaviour(parent + change):
        print(f"behaviour changed: {line}")
    return 1 if failed else 0
