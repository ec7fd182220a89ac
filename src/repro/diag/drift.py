"""The metrics drift gate (``repro drift``).

Compares a fresh suite run against a checked-in baseline
(``benchmarks/baseline.json``) and fails on regressions — the repo's
cross-PR, machine-checkable guarantee that the numbers behind Figures 5-7
only move on purpose.

Gated metrics per ``workload/variant`` cell:

* ``total_ops`` / ``loads`` / ``stores`` — dynamic counters where an
  *increase* beyond tolerance is a regression;
* ``promotion.tags_promoted`` / ``pointer_promotion.promoted_bases`` —
  optimization yield where a *decrease* beyond tolerance is a regression.

Every other metric is compared informationally: changes are reported
but do not fail the gate (so e.g. LICM hoisting more after a refactor
does not break CI).  A baseline cell missing from the current run fails
the gate (lost coverage), and so does a gated metric that the baseline
cell has and the current cell lacks; a new cell is reported and ignored
until ``--update`` re-baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError
from .log import get_logger

__all__ = [
    "BASELINE_SCHEMA",
    "Drift",
    "compare_cells",
    "format_drift_report",
    "load_baseline",
    "suite_cell_metrics",
    "write_baseline",
]

log = get_logger(__name__)

BASELINE_SCHEMA = 1

#: regression when the metric goes up
GATE_HIGHER_IS_WORSE = ("total_ops", "loads", "stores")
#: regression when the metric goes down
GATE_LOWER_IS_WORSE = (
    "promotion.tags_promoted",
    "pointer_promotion.promoted_bases",
)
_GATED = GATE_HIGHER_IS_WORSE + GATE_LOWER_IS_WORSE
#: the drift kinds that fail the gate
_FAILING = ("regression", "missing-cell", "missing-metric")


@dataclass
class Drift:
    """One metric that moved (or a cell that appeared/vanished)."""

    cell: str
    metric: str
    baseline: float | None
    current: float | None
    #: "regression" | "improvement" | "info" | "missing-cell" |
    #: "missing-metric" | "new-cell"
    kind: str

    @property
    def percent(self) -> float:
        if self.baseline in (None, 0) or self.current is None:
            return 0.0
        return 100.0 * (self.current - self.baseline) / self.baseline

    def __str__(self) -> str:
        if self.kind == "missing-cell":
            return f"{self.cell}: present in baseline, missing from this run"
        if self.kind == "missing-metric":
            return (
                f"{self.cell} {self.metric}: present in baseline, "
                "missing from this run"
            )
        if self.kind == "new-cell":
            return f"{self.cell}: not in baseline (use --update to adopt)"
        arrow = f"{self.baseline:g} -> {self.current:g}"
        return f"{self.cell} {self.metric}: {arrow} ({self.percent:+.2f}%)"


def suite_cell_metrics(report) -> dict[str, dict[str, float]]:
    """Flatten a :class:`~repro.runner.report.SuiteReport` into
    ``{"workload/variant": {metric: value}}`` — counters plus the
    cell's ``metrics`` dict."""
    cells: dict[str, dict[str, float]] = {}
    for (workload, variant), outcome in sorted(report.outcomes.items()):
        if not outcome.ok:
            continue
        metrics: dict[str, float] = {
            "total_ops": outcome.counters.total_ops,
            "loads": outcome.counters.loads,
            "stores": outcome.counters.stores,
        }
        metrics.update(getattr(outcome, "metrics", {}) or {})
        cells[f"{workload}/{variant}"] = metrics
    return cells


def _exceeds(baseline: float, current: float, tolerance_pct: float) -> bool:
    if baseline == 0:
        return current != 0
    return abs(current - baseline) > abs(baseline) * tolerance_pct / 100.0


def compare_cells(
    baseline_cells: dict[str, dict[str, float]],
    current_cells: dict[str, dict[str, float]],
    tolerance_pct: float = 0.0,
) -> list[Drift]:
    """Diff two metric snapshots; regressions carry ``kind="regression"``."""
    drifts: list[Drift] = []
    for cell in sorted(baseline_cells):
        base = baseline_cells[cell]
        cur = current_cells.get(cell)
        if cur is None:
            drifts.append(Drift(cell, "-", None, None, "missing-cell"))
            continue
        for metric in sorted(set(base) | set(cur)):
            b = base.get(metric)
            c = cur.get(metric)
            if c is None and b is not None and metric in _GATED:
                drifts.append(Drift(cell, metric, b, None, "missing-metric"))
                continue
            if b is None or c is None or b == c:
                continue
            if metric in GATE_HIGHER_IS_WORSE:
                bad = c > b and _exceeds(b, c, tolerance_pct)
                kind = "regression" if bad else "improvement" if c < b else "info"
            elif metric in GATE_LOWER_IS_WORSE:
                bad = c < b and _exceeds(b, c, tolerance_pct)
                kind = "regression" if bad else "improvement" if c > b else "info"
            else:
                kind = "info"
            drifts.append(Drift(cell, metric, b, c, kind))
    for cell in sorted(set(current_cells) - set(baseline_cells)):
        drifts.append(Drift(cell, "-", None, None, "new-cell"))
    return drifts


def regressions(drifts: list[Drift]) -> list[Drift]:
    return [d for d in drifts if d.kind in _FAILING]


def format_drift_report(drifts: list[Drift], tolerance_pct: float) -> str:
    failed = regressions(drifts)
    improved = [d for d in drifts if d.kind == "improvement"]
    info = [d for d in drifts if d.kind in ("info", "new-cell")]
    lines: list[str] = []
    if failed:
        lines.append(f"REGRESSIONS (tolerance {tolerance_pct:g}%):")
        lines.extend(f"  {d}" for d in failed)
    if improved:
        lines.append("improvements:")
        lines.extend(f"  {d}" for d in improved)
    if info:
        lines.append("informational drift (not gated):")
        lines.extend(f"  {d}" for d in info)
    if not drifts:
        lines.append("no drift: every gated metric matches the baseline")
    lines.append(
        f"drift: {len(failed)} regression(s), {len(improved)} improvement(s), "
        f"{len(info)} informational"
    )
    return "\n".join(lines)


def load_baseline(path: str | Path) -> dict[str, dict[str, float]]:
    """Read a drift baseline; a file that is not one raises
    :class:`~repro.errors.ReproError` naming it (and the line, for
    malformed JSON, or the cell, for one that is not a metrics map)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"{path}:{error.lineno}: {error.msg}") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BASELINE_SCHEMA or not isinstance(payload.get("cells"), dict):
        raise ReproError(
            f"{path}: not a drift baseline (schema {schema!r}, "
            f"expected {BASELINE_SCHEMA} with a cells map)"
        )
    for cell, metrics in payload["cells"].items():
        if not isinstance(metrics, dict) or not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in metrics.values()
        ):
            raise ReproError(
                f"{path}: cell {cell!r} does not map metric names to numbers"
            )
    return payload["cells"]


def write_baseline(path: str | Path, cells: dict[str, dict[str, float]]) -> None:
    payload = {"schema": BASELINE_SCHEMA, "cells": cells}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    log.info("baseline written: %s (%d cells)", path, len(cells))
