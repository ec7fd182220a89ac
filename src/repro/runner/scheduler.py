"""Job scheduler: run experiment cells inline or on worker processes.

Each ``(workload, variant)`` cell is an independent job that carries its
own source text, so injected or synthetic workloads need no registry
coordination, and compiles its own module: only serve's workers share
compiled modules between cells (see :mod:`repro.runner.pool`).
``jobs > 1`` runs cells on :mod:`repro.runner.pool` workers spawned for
the call; ``jobs <= 1`` runs them inline, where the IR-bearing
``CompileResult`` stays attached to each result.  A cell that
raises, takes its worker down, or runs out of ``timeout`` becomes a
:class:`CellFailure` instead of killing the suite, and a crashed cell is
retried up to ``retries`` extra times.  With a
:class:`~repro.runner.cache.ResultCache`, hits skip execution and
successes are written back.  With ``collect_trace=True`` each cell's
per-pass spans (see :mod:`repro.trace`) come back as plain dicts.

A pooled cell's ``timeout`` budget starts when a worker picks it up.
When it runs out, that worker is killed and reaped and a fresh one takes
the next cell, so ``timeout`` bounds wall time.  A dead worker costs
only the cell it held.  Inline cells cannot be preempted, so the CLI
rejects ``--timeout`` without ``--jobs`` > 1.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Union

from ..diag.log import get_logger
from ..inccomp.store import FunctionStore
from ..interp import MachineOptions
from ..pipeline import (
    CompileResult,
    ExperimentCell,
    PipelineOptions,
    compile_source,
    run_compiled,
)
from ..trace import TraceContext, span, tracing
from .cache import ResultCache, cell_key
from .pool import WorkerLost, describe_error, fan_out

_log = get_logger(__name__)

__all__ = [
    "CellFailure",
    "CellOutcome",
    "CellSpec",
    "compile_memo_key",
    "execute_cell",
    "run_cells",
    "spec_cache_key",
]


@dataclass(frozen=True)
class CellSpec:
    """One schedulable job: compile ``source`` with ``options`` and run it."""

    workload: str
    variant: str
    source: str
    options: PipelineOptions
    machine: MachineOptions
    defines: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.workload, self.variant)


@dataclass
class CellFailure:
    """A cell that crashed or timed out; the suite keeps going."""

    workload: str
    variant: str
    kind: str  # "crash" | "timeout"
    message: str
    attempts: int
    seconds: float = 0.0

    ok = False

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


CellOutcome = Union[ExperimentCell, CellFailure]


def execute_cell(
    spec: CellSpec,
    collect_trace: bool = False,
    keep_compile_result: bool = False,
    compile_cache: dict[str, CompileResult] | None = None,
    trace_ctx: TraceContext | None = None,
    trace_worker: str | None = None,
    fn_store: FunctionStore | None = None,
) -> ExperimentCell:
    """Compile and run one cell, inline or in a worker process.

    ``keep_compile_result`` attaches the full IR-bearing
    :class:`CompileResult`.  ``compile_cache`` (keyed by
    :func:`compile_memo_key`) is a serve worker's memo: cells that
    differ only in :class:`MachineOptions` share one compilation;
    running never mutates the module, and every sharing cell carries the
    compile's metrics.

    ``trace_ctx`` joins this cell to a distributed trace: spans carry its
    trace id, are parented under its ``parent_id``, and come back in
    ``trace_events`` for the requester to adopt.  It implies
    ``collect_trace``.
    """
    started = time.perf_counter()
    traced = collect_trace or trace_ctx is not None
    key = compile_memo_key(spec) if compile_cache is not None else None
    with (
        tracing(
            f"{spec.workload}:{spec.variant}",
            context=trace_ctx,
            worker=trace_worker or f"pid{os.getpid()}",
        )
        if traced
        else contextlib.nullcontext()
    ) as trace:
        compiled = compile_cache.get(key) if key is not None else None
        if compiled is None:
            with span("compile", variant=spec.options.variant_name()):
                compiled = compile_source(
                    spec.source,
                    spec.options,
                    name=spec.workload,
                    defines=dict(spec.defines) or None,
                    fn_store=fn_store,
                )
            if key is not None:
                compile_cache[key] = compiled
        cell = run_compiled(compiled, spec.machine)
    _log.debug(
        "cell %s[%s] done in %.3fs", spec.workload, spec.variant,
        time.perf_counter() - started,
    )
    cell.workload = spec.workload
    cell.variant = spec.variant
    cell.seconds = time.perf_counter() - started
    cell.trace_events = [e.as_dict() for e in trace.events] if traced else []
    if not keep_compile_result:
        cell.compile_result = None
    return cell


def spec_cache_key(spec: CellSpec) -> str:
    return cell_key(spec.source, dict(spec.defines), spec.options, spec.machine)


def compile_memo_key(spec: CellSpec) -> str:
    """Machine-independent cache key: everything that shapes the compiled
    module but nothing about how it will be interpreted."""
    return cell_key(spec.source, dict(spec.defines), spec.options, None)


ProgressFn = Callable[[CellSpec, CellOutcome], None]


def run_cells(
    specs: list[CellSpec],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    cache: ResultCache | None = None,
    collect_trace: bool = False,
    progress: ProgressFn | None = None,
    fn_store: FunctionStore | None = None,
) -> dict[tuple[str, str], CellOutcome]:
    """Run every cell, returning an outcome per ``(workload, variant)``.
    Each cell compiles its own module.

    ``fn_store`` enables incremental per-function compilation (see
    :mod:`repro.inccomp`).  Pooled workers are forked with it: a
    disk-backed store is shared across processes, while a memory-only
    one gives each worker a private copy whose additions never come back.
    """
    outcomes: dict[tuple[str, str], CellOutcome] = {}
    by_key = {spec.key: spec for spec in specs}
    if len(by_key) != len(specs):
        raise ValueError("duplicate (workload, variant) cells in schedule")
    attempts = dict.fromkeys(by_key, 0)

    def finish(spec: CellSpec, outcome: CellOutcome) -> None:
        outcomes[spec.key] = outcome
        if (
            cache is not None
            and isinstance(outcome, ExperimentCell)
            and not outcome.from_cache
        ):
            cache.put(spec_cache_key(spec), outcome.cache_payload())
        if progress is not None:
            progress(spec, outcome)

    def settle(spec: CellSpec, outcome, seconds: float) -> bool:
        """Record one attempt: a cell, or a ``(kind, message)`` failure.
        True runs the cell again (a crash with retries left)."""
        attempts[spec.key] += 1
        if isinstance(outcome, ExperimentCell):
            finish(spec, outcome)
            return False
        kind, message = outcome
        if kind == "crash" and attempts[spec.key] <= retries:
            return True
        _log.warning(
            "cell %s[%s] failed (%s) after %d attempt(s): %s",
            spec.workload, spec.variant, kind, attempts[spec.key], message,
        )
        finish(
            spec,
            CellFailure(
                spec.workload, spec.variant, kind, message, attempts[spec.key],
                seconds,
            ),
        )
        return False

    pending: list[CellSpec] = []
    for spec in specs:
        payload = cache.get(spec_cache_key(spec)) if cache is not None else None
        if payload is not None:
            finish(spec, ExperimentCell.from_cache_payload(spec, payload))
        else:
            pending.append(spec)

    if jobs <= 1:
        for spec in pending:
            while True:
                started = time.perf_counter()
                try:
                    outcome = execute_cell(
                        spec,
                        collect_trace,
                        keep_compile_result=True,
                        fn_store=fn_store,
                    )
                except Exception as error:
                    outcome = ("crash", describe_error(error))
                if not settle(spec, outcome, time.perf_counter() - started):
                    break
    else:
        fan_out(
            [
                {"kind": "cell", "spec": spec, "collect_trace": collect_trace}
                for spec in pending
            ],
            jobs,
            settle=lambda job, reply, seconds: settle(
                job["spec"], _pooled_outcome(job["spec"], reply, timeout), seconds
            ),
            timeout=timeout,
            fn_store=fn_store,
        )
    return outcomes


def _pooled_outcome(spec: CellSpec, reply, timeout: float | None):
    """A worker's reply, or the :class:`WorkerLost` instead of one, as a
    cell or a ``(kind, message)`` failure."""
    if isinstance(reply, WorkerLost):
        if reply.reason == "deadline_kill":
            return ("timeout", f"exceeded {timeout:.3g}s cell budget")
        return ("crash", f"worker process died: {reply}")
    if not reply["ok"]:
        return ("crash", reply["error"]["message"])
    # the reply carries the cache's slim payload, but this cell was just
    # built, not read back: it is not from_cache
    result = reply["result"]
    cell = ExperimentCell.from_cache_payload(spec, result["cell"])
    cell.from_cache = False
    cell.trace_events = result.get("trace_spans", [])
    return cell
