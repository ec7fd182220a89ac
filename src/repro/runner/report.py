"""Suite orchestration and reporting.

:func:`run_suite_report` is the one way to run the paper's matrix: it
expands the workload x variant matrix into
:class:`~repro.runner.scheduler.CellSpec` jobs, hands them to the
scheduler, and groups the outcomes into the harness's
:class:`~repro.harness.experiments.ProgramResult` / ``FigureRow``
shapes.  The result is a :class:`SuiteReport` that renders the paper's
Figure 5/6/7 tables *and* serializes to a machine-readable
``suite.json``.

Output-agreement checking (the end-to-end correctness oracle,
:func:`repro.pipeline.check_outputs_agree`) happens here, after the
join, over cells that succeeded — a crashed variant produces a
:class:`~repro.runner.scheduler.CellFailure` entry and a non-zero suite
exit code without suppressing the comparison of its healthy siblings.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..diag.host import host_metadata
from ..harness.experiments import METRICS, ProgramResult, figure_rows
from ..inccomp.store import FunctionStore
from ..interp import MachineOptions
from ..pipeline import ExperimentCell, check_outputs_agree, paper_variants
from ..regalloc import RegAllocOptions
from ..workloads import Workload, all_workloads, get_workload
from .cache import SCHEMA_VERSION, ResultCache
from .scheduler import (
    CellFailure,
    CellOutcome,
    CellSpec,
    ProgressFn,
    run_cells,
)
from ..trace import SpanEvent

__all__ = [
    "SuiteReport",
    "build_suite_specs",
    "run_suite_report",
    "write_suite_json",
]


@dataclass
class SuiteReport:
    """Everything one suite run produced."""

    results: dict[str, ProgramResult]
    failures: list[CellFailure]
    disagreements: list[str]
    outcomes: dict[tuple[str, str], CellOutcome]
    seconds: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    #: interpreter engine every cell ran under (compiled | simple)
    engine: str = "compiled"

    @property
    def ok(self) -> bool:
        return not self.failures and not self.disagreements

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def trace_groups(self) -> dict[str, list[SpanEvent]]:
        """Per-cell span groups for Chrome-trace export / the summary."""
        groups: dict[str, list[SpanEvent]] = {}
        for (workload, variant), outcome in sorted(self.outcomes.items()):
            if isinstance(outcome, ExperimentCell) and outcome.trace_events:
                groups[f"{workload}:{variant}"] = [
                    SpanEvent.from_dict(event) for event in outcome.trace_events
                ]
        return groups

    def to_dict(self) -> dict:
        programs: dict[str, dict] = {}
        for (workload, variant), outcome in sorted(self.outcomes.items()):
            entry = programs.setdefault(workload, {"cells": {}, "failures": {}})
            if isinstance(outcome, ExperimentCell):
                entry["cells"][variant] = {
                    "counters": outcome.counters.as_dict(),
                    "exit_code": outcome.exit_code,
                    "seconds": round(outcome.seconds, 6),
                    "from_cache": outcome.from_cache,
                    "metrics": dict(outcome.metrics),
                }
            else:
                entry["failures"][variant] = outcome.as_dict()
        figures = {
            metric: [
                {
                    "program": row.program,
                    "analysis": row.analysis,
                    "without": row.without,
                    "with": row.with_promotion,
                    "difference": row.difference,
                    "percent_removed": round(row.percent_removed, 4),
                }
                for row in figure_rows(self.results, metric)
            ]
            for metric in METRICS
        }
        return {
            "schema": SCHEMA_VERSION,
            "host": host_metadata(),
            "ok": self.ok,
            "jobs": self.jobs,
            "engine": self.engine,
            "seconds": round(self.seconds, 6),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "programs": programs,
            "figures": figures,
            "disagreements": list(self.disagreements),
        }

    def json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def build_suite_specs(
    workloads: list[Workload],
    pointer_promotion: bool = False,
    regalloc: RegAllocOptions | None = None,
    max_steps: int = 50_000_000,
    engine: str = "compiled",
) -> list[CellSpec]:
    """The full matrix: one spec per (workload, paper variant)."""
    machine = MachineOptions(max_steps=max_steps, engine=engine)
    specs: list[CellSpec] = []
    for workload in workloads:
        for variant, options in paper_variants(
            pointer_promotion=pointer_promotion, regalloc=regalloc
        ).items():
            specs.append(
                CellSpec(
                    workload=workload.name,
                    variant=variant,
                    source=workload.source,
                    options=options,
                    machine=machine,
                    defines=tuple(sorted(workload.defines.items())),
                )
            )
    return specs


def collect_results(
    outcomes: dict[tuple[str, str], CellOutcome],
    check_agreement: bool = True,
) -> tuple[dict[str, ProgramResult], list[CellFailure], list[str]]:
    """Fold cell outcomes into per-program results plus failure lists.

    Only programs whose every variant succeeded appear in ``results`` (a
    figure row needs both sides of the without/with pair); programs with
    failures are reported through the failure list and ``suite.json``.
    """
    per_program: dict[str, dict[str, CellOutcome]] = {}
    for (workload, variant), outcome in outcomes.items():
        per_program.setdefault(workload, {})[variant] = outcome
    results: dict[str, ProgramResult] = {}
    failures: list[CellFailure] = []
    disagreements: list[str] = []
    for workload, cells in per_program.items():
        succeeded = {
            variant: outcome
            for variant, outcome in cells.items()
            if isinstance(outcome, ExperimentCell)
        }
        failures.extend(
            outcome
            for outcome in cells.values()
            if isinstance(outcome, CellFailure)
        )
        if check_agreement and len(succeeded) > 1:
            disagreements.extend(
                f"{workload}: {problem}"
                for problem in check_outputs_agree(succeeded)
            )
        if len(succeeded) == len(cells):
            results[workload] = ProgramResult(name=workload, cells=succeeded)
    return results, failures, disagreements


def run_suite_report(
    names: list[str] | None = None,
    *,
    pointer_promotion: bool = False,
    regalloc: RegAllocOptions | None = None,
    max_steps: int = 50_000_000,
    engine: str = "compiled",
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    collect_trace: bool = False,
    check_agreement: bool = True,
    progress: ProgressFn | None = None,
    fn_store: "FunctionStore | None" = None,
) -> SuiteReport:
    """Run the suite (or a named subset) through the scheduler."""
    workloads = (
        [get_workload(name) for name in names]
        if names is not None
        else all_workloads()
    )
    specs = build_suite_specs(
        workloads,
        pointer_promotion=pointer_promotion,
        regalloc=regalloc,
        max_steps=max_steps,
        engine=engine,
    )
    started = time.perf_counter()
    outcomes = run_cells(
        specs,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        cache=cache,
        collect_trace=collect_trace,
        progress=progress,
        fn_store=fn_store,
    )
    results, failures, disagreements = collect_results(
        outcomes, check_agreement=check_agreement
    )
    # preserve the requested workload ordering in the figure tables
    ordered = {w.name: results[w.name] for w in workloads if w.name in results}
    return SuiteReport(
        results=ordered,
        failures=failures,
        disagreements=disagreements,
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
        jobs=jobs,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        engine=engine,
    )


def write_suite_json(path: str | Path, report: SuiteReport) -> None:
    Path(path).write_text(report.json() + "\n")
