"""Aggregation of seeded sweeps.

A sweep (:func:`repro.sim.fleet.run_fleet`) returns one row of
measurements per seed; :func:`aggregate_rows` folds those rows into one
:class:`Aggregate` per measured key.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence


@dataclass(frozen=True)
class Aggregate:
    """Mean / standard deviation / extrema of one measured quantity."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Aggregate":
        """Aggregate a non-empty sequence of numbers.

        ``std`` is the *sample* standard deviation
        (:func:`statistics.stdev`, Bessel-corrected): the trials behind
        an aggregate are a sample of seeds from the population of
        possible runs, not the population itself.  A single value has
        sample std 0.0 by convention.
        """
        if not values:
            raise ValueError("cannot aggregate an empty sequence")
        values = [float(v) for v in values]
        return cls(
            mean=statistics.fmean(values),
            std=statistics.stdev(values) if len(values) > 1 else 0.0,
            minimum=min(values),
            maximum=max(values),
            count=len(values),
        )


def aggregate_rows(rows: Iterable[Mapping[str, float]]) -> Dict[str, Aggregate]:
    """Fold sweep rows into one :class:`Aggregate` per key, in the
    order the keys first appear."""
    samples: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            samples.setdefault(key, []).append(float(value))
    return {key: Aggregate.of(values) for key, values in samples.items()}
