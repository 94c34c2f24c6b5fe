"""Parallel Monte-Carlo trials over one topology.

The sweeps in :mod:`repro.analysis.sweep` run serially; larger studies
(hundreds of seeds per configuration) benefit from process parallelism.
``monte_carlo`` maps ``trial(graph, seed)`` over a seed range on
:class:`repro.sim.fleet.FleetRunner`, which ships the topology to its
spawn workers once via shared memory, and aggregates like
``run_trials``.

The trial callable must be picklable (a module-level function or an
instance of a module-level class, not a lambda or closure) whenever it
runs in worker processes; a helpful error explains it if violated.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.analysis.sweep import Aggregate


def monte_carlo(
    trial: Callable[..., Mapping[str, float]],
    seeds: Iterable[int],
    *,
    graph: Any,
    processes: Optional[int] = None,
    registry: Any = None,
) -> Dict[str, Aggregate]:
    """Run ``trial(graph, seed)`` across seeds on the fleet runner.

    Positions are shared read-only across spawn workers.  ``processes``
    sizes the fleet: ``None`` from the CPU count, ``0`` inline in this
    process.  A single seed always runs inline: it never parallelizes,
    so it needs no worker and no picklable trial.
    """
    from repro.sim.fleet import run_fleet

    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("no seeds given")
    if len(seed_list) == 1:
        processes = 0
    elif processes is None or processes > 0:
        _require_picklable(trial)
    rows = run_fleet(graph, trial, seed_list, workers=processes, registry=registry)
    return _aggregate(rows)


def _require_picklable(trial: Callable[..., Mapping[str, float]]) -> None:
    try:
        pickle.dumps(trial)
    except Exception as failure:
        raise TypeError(
            "monte_carlo trials run in worker processes, so the "
            "trial must be a picklable top-level function "
            f"(got {trial!r}: {failure})"
        ) from failure


def _aggregate(rows: Iterable[Mapping[str, float]]) -> Dict[str, Aggregate]:
    samples: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            samples.setdefault(key, []).append(float(value))
    return {key: Aggregate.of(values) for key, values in samples.items()}
