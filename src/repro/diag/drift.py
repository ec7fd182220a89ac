"""The metrics drift gate (``repro drift BASELINE CURRENT``).

Compares two ``suite.json`` files — normally the committed
``benchmarks/out/suite.json`` and a fresh ``repro suite --json`` run —
and fails on regressions: the repo's machine-checkable guarantee that
the numbers behind Figures 5-7 only move on purpose.

A cell's snapshot is its ``counters`` merged with its ``metrics``.
Gated metrics per ``workload/variant`` cell:

* ``total_ops`` / ``loads`` / ``stores`` — dynamic counters where any
  *increase* is a regression;
* ``promotion.tags_promoted`` / ``pointer_promotion.promoted_bases`` —
  optimization yield where any *decrease* is a regression.

Every other name (``copies``, ``licm.hoisted``, …) is compared
informationally: changes are reported but do not fail the gate.  Only
the programs CURRENT lists are compared.  A baseline cell of such a
program that CURRENT lacks (a failed cell) fails the gate, and so does
a gated metric that the baseline cell has and the current cell lacks; a
new cell is reported and not gated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError
from ..runner.cache import SCHEMA_VERSION

__all__ = [
    "Drift",
    "SuiteFile",
    "compare_cells",
    "compare_suites",
    "format_drift_report",
    "load_suite",
    "regressions",
]

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
    def percent(self) -> float | None:
        """Relative change; None when there is no baseline to divide by."""
        if not self.baseline or self.current is None:
            return None
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
            return f"{self.cell}: not in baseline"
        line = f"{self.cell} {self.metric}: {self.baseline:g} -> {self.current:g}"
        percent = self.percent
        return line if percent is None else f"{line} ({percent:+.2f}%)"


@dataclass
class SuiteFile:
    """The parts of one ``suite.json`` the gate reads."""

    ok: bool
    #: the programs the run covered, failed ones included
    programs: list[str]
    #: ``{"workload/variant": counters | metrics}`` for succeeded cells
    cells: dict[str, dict[str, float]]


def load_suite(path: str | Path) -> SuiteFile:
    """Read a ``suite.json``; a file that is not one raises
    :class:`~repro.errors.ReproError` naming it (and the line, for
    malformed JSON, or the cell, for one without numeric counters and
    metrics)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"{path}:{error.lineno}: {error.msg}") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA_VERSION or not isinstance(payload.get("programs"), dict):
        raise ReproError(
            f"{path}: not a suite.json (schema {schema!r}, "
            f"expected {SCHEMA_VERSION} with a programs map)"
        )
    cells: dict[str, dict[str, float]] = {}
    for program, entry in sorted(payload["programs"].items()):
        program_cells = entry.get("cells", {}) if isinstance(entry, dict) else None
        if not isinstance(program_cells, dict):
            raise ReproError(f"{path}: program {program!r} has no cells map")
        for variant, cell in sorted(program_cells.items()):
            name = f"{program}/{variant}"
            try:
                snapshot = {**cell["counters"], **cell["metrics"]}
            except (KeyError, TypeError):
                snapshot = None
            if snapshot is None or not all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in snapshot.values()
            ):
                raise ReproError(
                    f"{path}: cell {name!r} does not map counter and "
                    "metric names to numbers"
                )
            cells[name] = snapshot
    return SuiteFile(
        ok=payload.get("ok") is True,
        programs=sorted(payload["programs"]),
        cells=cells,
    )


def compare_cells(
    baseline_cells: dict[str, dict[str, float]],
    current_cells: dict[str, dict[str, float]],
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
                kind = "regression" if c > b else "improvement"
            elif metric in GATE_LOWER_IS_WORSE:
                kind = "regression" if c < b else "improvement"
            else:
                kind = "info"
            drifts.append(Drift(cell, metric, b, c, kind))
    for cell in sorted(set(current_cells) - set(baseline_cells)):
        drifts.append(Drift(cell, "-", None, None, "new-cell"))
    return drifts


def compare_suites(baseline: SuiteFile, current: SuiteFile) -> list[Drift]:
    """:func:`compare_cells` over the programs ``current`` lists."""
    listed = tuple(f"{program}/" for program in current.programs)
    judged = {
        cell: snapshot
        for cell, snapshot in baseline.cells.items()
        if cell.startswith(listed)
    }
    return compare_cells(judged, current.cells)


def regressions(drifts: list[Drift]) -> list[Drift]:
    return [d for d in drifts if d.kind in _FAILING]


def format_drift_report(drifts: list[Drift]) -> str:
    failed = regressions(drifts)
    improved = [d for d in drifts if d.kind == "improvement"]
    info = [d for d in drifts if d.kind in ("info", "new-cell")]
    lines: list[str] = []
    if failed:
        lines.append("REGRESSIONS:")
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
