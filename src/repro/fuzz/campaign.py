"""The ``repro fuzz`` campaign driver.

Generates programs in batches and judges each with
:func:`~repro.fuzz.oracle.run_oracle`: inline, or with ``jobs > 1`` one
:mod:`repro.runner.pool` job per program.  A program whose worker is
lost (killed, or dead mid-job) is reported divergent with one
``crash-divergence`` naming the loss, and the batch carries on.

Budget semantics: ``budget_seconds`` is wall clock; the campaign stops
*starting* new batches once the budget is spent, so a run always finishes
the batch in flight.  ``max_programs`` caps the count exactly (useful for
deterministic CI smoke runs and tests).

Every divergence becomes an artifact directory (source + Decision-style
``report.json``), is delta-reduced to a minimal reproducer unless
``reduce`` is off, and — when ``corpus_dir`` is set — the reduced
program is promoted into the regression corpus for a permanent tier-1
differential test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..diag.log import get_logger
from ..runner.pool import WorkerLost, fan_out
from ..trace import (
    FlightRecorder,
    flight_recorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from .gen import FuzzProgram, GenOptions, generate_program
from .oracle import (
    Divergence,
    OracleConfig,
    OracleReport,
    make_divergence_predicate,
    run_oracle,
    write_divergence_artifact,
)
from .reduce import reduce_source

_log = get_logger(__name__)

ProgressFn = Callable[[OracleReport], None]


@dataclass
class CampaignOptions:
    """One fuzzing run's shape."""

    budget_seconds: float = 60.0
    max_programs: int | None = None
    seed: int = 0
    jobs: int = 1
    batch_size: int = 16
    keep_going: bool = False
    reduce: bool = True
    corpus_dir: str | None = None
    artifacts_dir: str = "fuzz-artifacts"
    oracle: OracleConfig = field(default_factory=OracleConfig)
    gen: GenOptions = field(default_factory=GenOptions)


@dataclass
class CampaignResult:
    """Aggregate outcome (the CLI summary and the CI gate)."""

    programs: int = 0
    ok: int = 0
    traps: int = 0
    divergent: int = 0
    seconds: float = 0.0
    first_seed: int = 0
    last_seed: int = -1
    divergence_reports: list[OracleReport] = field(default_factory=list)
    artifact_dirs: list[Path] = field(default_factory=list)
    reduced_sources: dict[str, str] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.divergent == 0

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def summary(self) -> str:
        rate = self.programs / self.seconds if self.seconds > 0 else 0.0
        return (
            f"fuzz: {self.programs} program(s) in {self.seconds:.1f}s "
            f"({rate:.1f}/s) — {self.ok} ok, {self.traps} trap-consistent, "
            f"{self.divergent} DIVERGENT (seeds {self.first_seed}.."
            f"{self.last_seed})"
        )


def run_campaign(
    options: CampaignOptions, progress: ProgressFn | None = None
) -> CampaignResult:
    """Run one budgeted fuzzing campaign."""
    started = time.perf_counter()
    result = CampaignResult(first_seed=options.seed)
    next_seed = options.seed
    stop = False

    # last-N program history + recent log records ride along in every
    # divergence artifact (see _handle_divergence)
    recorder = install_flight_recorder(FlightRecorder(capacity=256))
    try:
        while not stop:
            elapsed = time.perf_counter() - started
            if elapsed >= options.budget_seconds:
                break
            batch_size = options.batch_size
            if options.max_programs is not None:
                remaining = options.max_programs - result.programs
                if remaining <= 0:
                    break
                batch_size = min(batch_size, remaining)

            batch = [
                generate_program(next_seed + k, options.gen)
                for k in range(batch_size)
            ]
            next_seed += batch_size
            for report in _judge(batch, options):
                program = report.program
                recorder.record_event(
                    "fuzz.program",
                    program=program.name,
                    seed=program.seed,
                    status=report.status,
                )
                result.programs += 1
                result.last_seed = program.seed
                if report.status == "ok":
                    result.ok += 1
                elif report.status == "trap":
                    result.traps += 1
                else:
                    result.divergent += 1
                    result.divergence_reports.append(report)
                    _handle_divergence(report, options, result)
                    if not options.keep_going:
                        stop = True
                if progress is not None:
                    progress(report)
                if stop:
                    break
    finally:
        uninstall_flight_recorder()

    result.seconds = time.perf_counter() - started
    return result


def _judge(batch: list[FuzzProgram], options: CampaignOptions) -> list[OracleReport]:
    """One report per program of ``batch``, in batch order.  No function
    store: no two generated programs share a function record."""
    if options.jobs <= 1:
        return [run_oracle(p, options.oracle) for p in batch]
    reports: dict[int, OracleReport] = {}

    def settle(job: dict, reply, seconds: float) -> bool:
        program = job["program"]
        if isinstance(reply, WorkerLost):
            reports[program.seed] = _lost(program, f"worker process died: {reply}")
        elif not reply["ok"]:
            reports[program.seed] = _lost(program, reply["error"]["message"])
        else:
            reports[program.seed] = reply["result"]
        return False

    fan_out(
        [{"kind": "oracle", "program": p, "config": options.oracle} for p in batch],
        options.jobs,
        settle=settle,
    )
    return [reports[p.seed] for p in batch]


def _lost(program: FuzzProgram, why: str) -> OracleReport:
    """The verdict on a program whose oracle run never reported: as with
    any cell that crashed while others ran, a divergence."""
    lost = Divergence("crash-divergence", f"the oracle run was lost: {why}")
    return OracleReport(program, "divergent", divergences=[lost])


def _handle_divergence(
    report: OracleReport, options: CampaignOptions, result: CampaignResult
) -> None:
    """Artifact + (optionally) reduce + (optionally) promote to corpus."""
    _log.warning(
        "divergence in %s: %s",
        report.program.name,
        "; ".join(d.kind for d in report.divergences),
    )
    reduced: str | None = None
    if options.reduce:
        # pin the reduction to the first observed kind so it cannot drift
        # to an unrelated inconsistency while lines are being deleted
        kind = report.divergences[0].kind
        predicate = make_divergence_predicate(options.oracle, kind=kind)
        try:
            reduced, stats = reduce_source(report.program.source, predicate)
            _log.info(
                "reduced %s: %d -> %d lines",
                report.program.name, stats.initial_lines, stats.final_lines,
            )
        except ValueError:
            # flaky divergence (should not happen: everything here is
            # deterministic) — keep the full program as the artifact
            _log.warning("divergence did not reproduce under the reducer")
    artifact = write_divergence_artifact(
        report, options.artifacts_dir, reduced_source=reduced
    )
    recorder = flight_recorder()
    if recorder is not None:
        # recent program history + log records, inside the artifact dir
        recorder.dump(
            artifact,
            "fuzz_divergence",
            meta={
                "program": report.program.name,
                "seed": report.program.seed,
                "kinds": [d.kind for d in report.divergences],
            },
        )
    result.artifact_dirs.append(artifact)
    if reduced is not None:
        result.reduced_sources[report.program.name] = reduced
    if options.corpus_dir is not None:
        corpus = Path(options.corpus_dir)
        corpus.mkdir(parents=True, exist_ok=True)
        body = reduced if reduced is not None else report.program.source
        header = (
            f"/* {report.program.name}: "
            f"{'; '.join(d.kind for d in report.divergences)}\n"
            f"   regenerate: repro fuzz --seed {report.program.seed} "
            f"--programs 1 */\n"
        )
        (corpus / f"{report.program.name}.c").write_text(header + body)
