"""The experiment suite: every figure and theorem of the paper as a
runnable, checkable object.

Importing this package populates :data:`repro.experiments.REGISTRY`;
the benchmarks in ``benchmarks/`` time these same ``run`` functions and
re-use their ``check`` assertions, and the CLI exposes them via
``repro experiment``.
"""

from repro.experiments.base import (
    Experiment,
    REGISTRY,
    all_experiments,
    get,
)

# Importing the modules registers their experiments.
from repro.experiments import (  # noqa: F401  (imported for side effects)
    ablations,
    applications,
    churn,
    complexity,
    fig1,
    fig2,
    mis_lemmas,
    wcds_theorems,
)

__all__ = ["Experiment", "REGISTRY", "all_experiments", "get"]
