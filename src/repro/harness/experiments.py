"""The Figures 5-7 result shapes.

:func:`repro.runner.run_suite_report` runs the paper's four-variant
matrix — {MOD/REF, points-to} x {without, with promotion} — and groups
its cells per program into :class:`ProgramResult`; this module tabulates
total operations, stores, and loads exactly like the paper's figures:
``without | with | difference | % removed`` per program per analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pipeline import ExperimentCell

#: the metrics the paper reports, figure by figure
METRICS = ("total_ops", "stores", "loads")


@dataclass
class ProgramResult:
    """All four variants for one program."""

    name: str
    cells: dict[str, ExperimentCell] = field(default_factory=dict)

    def metric(self, variant: str, metric: str) -> int:
        counters = self.cells[variant].counters
        return getattr(counters, metric)

    def row(self, analysis: str, metric: str) -> "FigureRow":
        without = self.metric(f"{analysis}/nopromo", metric)
        with_ = self.metric(f"{analysis}/promo", metric)
        return FigureRow(
            program=self.name,
            analysis=analysis,
            without=without,
            with_promotion=with_,
        )


@dataclass(frozen=True)
class FigureRow:
    """One row of Figure 5, 6, or 7."""

    program: str
    analysis: str
    without: int
    with_promotion: int

    @property
    def difference(self) -> int:
        return self.without - self.with_promotion

    @property
    def percent_removed(self) -> float:
        if self.without == 0:
            return 0.0
        return 100.0 * self.difference / self.without


def figure_rows(
    results: dict[str, ProgramResult], metric: str
) -> list[FigureRow]:
    """All rows of one figure: per program, the modref and pointer rows."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; pick one of {METRICS}")
    rows: list[FigureRow] = []
    for result in results.values():
        rows.append(result.row("modref", metric))
        rows.append(result.row("pointer", metric))
    return rows
