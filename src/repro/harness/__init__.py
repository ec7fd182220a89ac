"""Experiment harness: the paper's Figures 5-7 rows and formatting."""

from .experiments import (
    FigureRow,
    METRICS,
    ProgramResult,
    figure_rows,
)
from .tables import format_figure, format_rows, summary_line

__all__ = [
    "FigureRow",
    "METRICS",
    "ProgramResult",
    "figure_rows",
    "format_figure",
    "format_rows",
    "summary_line",
]
