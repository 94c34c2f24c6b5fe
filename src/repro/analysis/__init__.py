"""Experiment harness helpers: sweep aggregation, table rendering.

Seeded sweeps run on :func:`repro.sim.fleet.run_fleet`;
:func:`aggregate_rows` folds their rows into :class:`Aggregate` values.
"""

from repro.analysis.sweep import Aggregate, aggregate_rows
from repro.analysis.tables import format_value, print_table, render_table
from repro.analysis.report import generate_report, rows_to_markdown

__all__ = [
    "Aggregate",
    "aggregate_rows",
    "format_value",
    "print_table",
    "render_table",
    "generate_report",
    "rows_to_markdown",
]
