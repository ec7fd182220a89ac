"""Shared benchmark fixtures.

The expensive artifact — the full 14-program x 4-variant matrix behind
Figures 5, 6, and 7 — is computed once per session through the
:mod:`repro.runner` scheduler and shared by every figure benchmark.  Each
benchmark regenerates its figure from the matrix, prints it, and writes it
under ``benchmarks/out/`` so EXPERIMENTS.md can reference the latest
numbers; the runner additionally drops a machine-readable ``suite.json``
next to the ``.txt`` artifacts.

Environment knobs: ``REPRO_BENCH_JOBS`` sets the worker-process count
(default: up to 4, bounded by the CPU count).  Caching is deliberately off
so the artifacts always reflect the checked-out compiler.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

OUT_DIR = Path(__file__).resolve().parent / "out"


def _bench_jobs() -> int:
    env = os.environ.get("REPRO_BENCH_JOBS")
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def suite_report(out_dir):
    from repro.runner.report import run_suite_report, write_suite_json

    report = run_suite_report(jobs=_bench_jobs())
    write_suite_json(out_dir / "suite.json", report)
    assert report.ok, (
        f"suite run degraded: failures={[f.as_dict() for f in report.failures]} "
        f"disagreements={report.disagreements}"
    )
    return report


@pytest.fixture(scope="session")
def suite_results(suite_report):
    return suite_report.results


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def write_artifact(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text + "\n")
    print()
    print(text)


def run_workload(name: str, options, max_steps: int = 50_000_000):
    """One (program, pipeline-variant) cell outside the paper's matrix —
    the ablations' unit of work."""
    from repro.interp import MachineOptions
    from repro.pipeline import compile_and_run
    from repro.workloads import get_workload

    workload = get_workload(name)
    return compile_and_run(
        workload.source,
        options,
        name=workload.name,
        defines=workload.defines,
        machine_options=MachineOptions(max_steps=max_steps),
    )
