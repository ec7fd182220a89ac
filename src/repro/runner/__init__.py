"""Parallel, cached, instrumented experiment runner.

Four cooperating modules (per-pass span tracing lives in
:mod:`repro.trace`):

* :mod:`~repro.runner.scheduler` — job scheduler with per-cell
  timeouts, bounded retries, and graceful degradation;
* :mod:`~repro.runner.pool` — the worker processes, shared with
  :mod:`repro.serve`: spawn, deadline, kill-and-reap, shutdown;
* :mod:`~repro.runner.cache` — content-addressed on-disk result cache;
* :mod:`~repro.runner.report` — suite orchestration, aggregation into the
  harness's figure shapes, and ``suite.json`` serialization.

Submodules are loaded lazily, so importing this package does not pull in
the scheduler (which imports the compiler pipeline).
"""

from __future__ import annotations

__all__ = [
    "CellFailure",
    "CellOutcome",
    "CellSpec",
    "ResultCache",
    "SuiteReport",
    "build_suite_specs",
    "cell_key",
    "execute_cell",
    "run_cells",
    "run_suite_report",
    "write_suite_json",
]

_LAZY = {
    "CellFailure": "scheduler",
    "CellOutcome": "scheduler",
    "CellSpec": "scheduler",
    "execute_cell": "scheduler",
    "run_cells": "scheduler",
    "ResultCache": "cache",
    "cell_key": "cache",
    "SuiteReport": "report",
    "build_suite_specs": "report",
    "run_suite_report": "report",
    "write_suite_json": "report",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
