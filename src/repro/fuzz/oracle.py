"""Multi-level differential oracle.

:func:`run_oracle` is the one judge of a generated program.  It runs a
matrix of cells:

====================  ====================================================
level                 pipeline
====================  ====================================================
``O0``                front end only — no analysis, no optimization, no
                      register allocation (the reference semantics)
``full-nopromo``      the full pipeline with register promotion disabled
``full``              the full default pipeline (MOD/REF + promotion)
``pointer``           full + points-to analysis + pointer promotion
====================  ====================================================

each × both interpreter engines (the ``simple`` reference loop and the
``compiled`` tier).  Each level is compiled once, with
``verify_each_stage=True`` so the IR verifier runs between passes, and
every engine runs that one module; a compile or a run that raises makes
its cells ``crash`` failures.  The verdict is built from four invariant
families:

* **output equivalence** — every successful cell prints the same bytes
  and exits with the same code;
* **crash consistency** — if the program traps (guarded UB such as
  division by zero), *every* cell must trap with the same message; a
  trap in some variants only is a miscompile;
* **engine equivalence** — for each level, both engines must produce
  bit-identical counters (the compiled tier's batching and
  exact-deoptimization contract); a violation names the engine pair
  that split.  At the ``full`` level both engines also run out of fuel,
  at ``max_steps`` ⌊total/2⌋ and total−1, and must stop with the same
  message and counters; a program that traps there must trap with the
  same counters too.  These runs reach the compiled tier's conservative
  deopts and its mid-path trap fixes;
* **counter consistency** — loads/stores breakdowns must sum, and
  disjoint instruction classes cannot exceed ``total_ops``.

A fifth, *advisory* check compares memory traffic between ``full`` and
``full-nopromo``: promotion inserting more dynamic loads+stores than it
removes is legal (a zero- or one-trip loop still pays the landing-pad
load and the exit store) but worth flagging, so it is recorded as a
warning rather than a divergence.

Divergences serialize as :class:`repro.diag.ledger.Decision`-style
records so ``repro explain``-era tooling and the fuzz artifacts share one
vocabulary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..diag.ledger import Decision
from ..inccomp.store import FunctionStore
from ..interp import Machine, MachineOptions
from ..ir.module import Module
from ..opt.promotion import PromotionOptions
from ..pipeline import (
    Analysis,
    ExperimentCell,
    PipelineOptions,
    compile_source,
    run_compiled,
)
from ..runner.pool import describe_error
from ..runner.scheduler import CellFailure
from .gen import FuzzProgram

ENGINES = ("compiled", "simple")

#: levels whose dynamic memory traffic the advisory check compares
_TRAFFIC_PAIR = ("full-nopromo", "full")

#: the level whose engines are also run out of fuel
_FUEL_LEVEL = "full"


def o0_options() -> PipelineOptions:
    """The reference cell: lowered IR straight into the interpreter."""
    return PipelineOptions(
        analysis=Analysis.NONE,
        promotion=False,
        pointer_promotion=False,
        optimize=False,
        verify_each_stage=True,
    )


def oracle_levels(
    promotion_options: PromotionOptions | None = None,
) -> dict[str, PipelineOptions]:
    """The level → pipeline map (``promotion_options`` lets tests inject a
    deliberately broken promotion pass into the promoting levels)."""
    promo = promotion_options or PromotionOptions()
    return {
        "O0": o0_options(),
        "full-nopromo": PipelineOptions(promotion=False, verify_each_stage=True),
        "full": PipelineOptions(verify_each_stage=True, promotion_options=promo),
        "pointer": PipelineOptions(
            analysis=Analysis.POINTER,
            pointer_promotion=True,
            verify_each_stage=True,
            promotion_options=promo,
        ),
    }


@dataclass(frozen=True)
class OracleConfig:
    """Which slice of the matrix to run and how much fuel to grant."""

    max_steps: int = 5_000_000
    levels: tuple[str, ...] = ("O0", "full-nopromo", "full", "pointer")
    engines: tuple[str, ...] = ENGINES
    promotion_options: PromotionOptions | None = None

    def pipeline_for(self, level: str) -> PipelineOptions:
        return oracle_levels(self.promotion_options)[level]


@dataclass
class Divergence:
    """One violated invariant."""

    kind: str  # output-divergence | crash-divergence | engine-divergence |
    #           counter-invariant
    message: str
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "detail": self.detail}


@dataclass
class OracleReport:
    """The verdict for one program."""

    program: FuzzProgram
    status: str  # "ok" | "trap" | "divergent"
    divergences: list[Divergence] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    cells: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "divergent"

    def decisions(self) -> list[Decision]:
        """Decision-style provenance (the :mod:`repro.diag` vocabulary)."""
        if not self.divergences:
            action = "trapped" if self.status == "trap" else "passed"
            return [
                Decision(
                    pass_name="fuzz.oracle",
                    function=self.program.name,
                    action=action,
                    detail={"seed": self.program.seed},
                )
            ]
        return [
            Decision(
                pass_name="fuzz.oracle",
                function=self.program.name,
                action="diverged",
                reason=d.kind,
                detail={"seed": self.program.seed, "message": d.message, **d.detail},
            )
            for d in self.divergences
        ]

    def as_dict(self) -> dict:
        return {
            "program": self.program.name,
            "seed": self.program.seed,
            "status": self.status,
            "divergences": [d.as_dict() for d in self.divergences],
            "warnings": list(self.warnings),
            "cells": self.cells,
            "decisions": [d.as_dict() for d in self.decisions()],
        }


def classify_outcomes(
    program: FuzzProgram,
    outcomes: dict[str, ExperimentCell | CellFailure],
) -> OracleReport:
    """Fold one program's cell outcomes into an :class:`OracleReport`.

    ``outcomes`` maps ``"<level>+<engine>"`` → cell outcome.
    """
    report = OracleReport(program=program, status="ok")
    successes: dict[str, ExperimentCell] = {}
    failures: dict[str, CellFailure] = {}
    for variant, outcome in outcomes.items():
        if isinstance(outcome, ExperimentCell):
            successes[variant] = outcome
            report.cells[variant] = {
                "exit_code": outcome.exit_code,
                "output_sha": _digest(outcome.output),
                "counters": outcome.counters.as_dict(),
            }
        else:
            failures[variant] = outcome
            report.cells[variant] = {
                "failure": outcome.kind,
                "message": outcome.message,
            }

    # crash consistency -----------------------------------------------------
    if failures and successes:
        report.divergences.append(
            Divergence(
                kind="crash-divergence",
                message=(
                    f"{sorted(failures)} crashed while {sorted(successes)} "
                    "ran to completion"
                ),
                detail={
                    "crashed": {v: f.message for v, f in sorted(failures.items())}
                },
            )
        )
    elif failures:
        messages = {f.message for f in failures.values()}
        if len(messages) == 1:
            report.status = "trap"
        else:
            report.divergences.append(
                Divergence(
                    kind="crash-divergence",
                    message="variants trapped with different faults",
                    detail={
                        "crashed": {
                            v: f.message for v, f in sorted(failures.items())
                        }
                    },
                )
            )

    # output equivalence ----------------------------------------------------
    if successes:
        groups: dict[tuple[int, str], list[str]] = {}
        for variant, data in sorted(successes.items()):
            groups.setdefault((data.exit_code, data.output), []).append(variant)
        if len(groups) > 1:
            baseline_key, baseline_variants = next(iter(groups.items()))
            detail = {
                "groups": [
                    {
                        "variants": variants,
                        "exit_code": key[0],
                        "output_sha": _digest(key[1]),
                        "output_head": key[1][:400],
                    }
                    for key, variants in groups.items()
                ]
            }
            report.divergences.append(
                Divergence(
                    kind="output-divergence",
                    message=(
                        f"{len(groups)} distinct (output, exit) groups; e.g. "
                        f"{baseline_variants} vs the rest"
                    ),
                    detail=detail,
                )
            )

    # engine equivalence ----------------------------------------------------
    by_level: dict[str, dict[str, ExperimentCell]] = {}
    for variant, data in successes.items():
        level, _, engine = variant.rpartition("+")
        by_level.setdefault(level, {})[engine] = data
    for level, engines in sorted(by_level.items()):
        if len(engines) < 2:
            continue
        counters = {e: d.counters.as_dict() for e, d in engines.items()}
        first_engine, first = next(iter(counters.items()))
        for engine, other in counters.items():
            if other != first:
                fields = sorted(k for k in first if first[k] != other.get(k))
                report.divergences.append(
                    Divergence(
                        kind="engine-divergence",
                        message=(
                            f"level {level}: {engine} counters differ "
                            f"from {first_engine}"
                        ),
                        detail={
                            "level": level,
                            "engines": [first_engine, engine],
                            "fields": fields,
                            "counters": counters,
                        },
                    )
                )
                break

    # counter consistency ----------------------------------------------------
    for variant, data in sorted(successes.items()):
        c = data.counters
        problems = []
        if c.loads != c.scalar_loads + c.general_loads:
            problems.append("loads != scalar_loads + general_loads")
        if c.stores != c.scalar_stores + c.general_stores:
            problems.append("stores != scalar_stores + general_stores")
        if c.total_ops < c.loads + c.stores + c.branches:
            problems.append("total_ops < loads + stores + branches")
        if min(c.as_dict().values()) < 0:
            problems.append("negative counter")
        if problems:
            report.divergences.append(
                Divergence(
                    kind="counter-invariant",
                    message=f"{variant}: {'; '.join(problems)}",
                    detail={"variant": variant, "counters": c.as_dict()},
                )
            )

    # advisory: promotion should not grow dynamic memory traffic ------------
    base_level, promo_level = _TRAFFIC_PAIR
    for engine in ("compiled",):
        base = successes.get(f"{base_level}+{engine}")
        promo = successes.get(f"{promo_level}+{engine}")
        if base is None or promo is None:
            continue
        if promo.counters.memory_ops() > base.counters.memory_ops():
            report.warnings.append(
                f"promotion increased loads+stores: "
                f"{base.counters.memory_ops()} -> "
                f"{promo.counters.memory_ops()} (legal for zero/low-trip "
                f"loops, worth a look)"
            )

    if report.divergences:
        report.status = "divergent"
    return report


def check_fuel_limits(
    report: OracleReport,
    config: OracleConfig,
    module: Module | None,
) -> None:
    """Engine equivalence where the fuel runs out: run every engine on
    ``module``, the ``full`` level's compiled module, at ``max_steps``
    ⌊total/2⌋ and total−1, where total is the level's op count, and add
    an engine divergence to ``report`` when one stops with another
    message or other counters than the first.

    A program that traps at the level is first run to its trap, whose
    counters must agree too, and total is the count it trapped at.  A
    level whose cells disagree, failed to compile (``module`` is
    ``None``) or ran out of the configured fuel is left to the other
    checks.
    """
    engines = config.engines
    if report.status == "divergent" or module is None or len(engines) < 2:
        return
    # the level's cells agree: all ran, with equal counters, or all
    # failed with one message
    first = report.cells[f"{_FUEL_LEVEL}+{engines[0]}"]
    if "executed operations" in first.get("message", ""):
        return
    runs = []
    if "counters" in first:
        total = first["counters"]["total_ops"]
    else:
        # run to the trap: its counters must agree, and give the total
        stops = {e: _fuel_stop(module, e, config.max_steps) for e in engines}
        runs.append((config.max_steps, stops))
        total = stops[engines[0]][1]["total_ops"]
    for limit in sorted({total // 2, total - 1}):
        runs.append((limit, {e: _fuel_stop(module, e, limit) for e in engines}))
    for limit, stops in runs:
        (first_engine, reference), *rest = stops.items()
        for engine, stop in rest:
            if stop == reference:
                continue
            counters = reference[1]
            report.divergences.append(
                Divergence(
                    kind="engine-divergence",
                    message=(
                        f"level {_FUEL_LEVEL} at max_steps={limit}: "
                        f"{engine} stops differently from {first_engine}"
                    ),
                    detail={
                        "level": _FUEL_LEVEL,
                        "max_steps": limit,
                        "engines": [first_engine, engine],
                        "fields": sorted(
                            k for k in counters if counters[k] != stop[1][k]
                        ),
                        "stops": {
                            e: {"end": end, "counters": c}
                            for e, (end, c) in stops.items()
                        },
                    },
                )
            )
            report.status = "divergent"
            return


def _fuel_stop(module, engine: str, limit: int) -> tuple[str, dict]:
    """How a run of ``module`` with ``limit`` steps ends, and its counters."""
    machine = Machine(module, MachineOptions(max_steps=limit, engine=engine))
    try:
        end = f"exit {machine.run().exit_code}"
    except Exception as exc:  # noqa: BLE001 - how the run ends is compared
        end = f"{type(exc).__name__}: {exc}"
    return end, machine.counters.as_dict()


def run_oracle(
    program: FuzzProgram,
    config: OracleConfig | None = None,
    fn_store: "FunctionStore | None" = None,
) -> OracleReport:
    """Judge one program: compile each level once, run every engine on
    it, classify the outcomes and run the fuel checks.

    ``fn_store`` makes the matrix incremental per function: levels share
    nothing with each other (their options differ), but successive
    oracle runs over related sources — the reducer's thousands of
    probes — reuse every function body they did not touch.
    """
    config = config or OracleConfig()
    outcomes: dict[str, ExperimentCell | CellFailure] = {}
    fuel_module = None
    for level in config.levels:
        try:
            compiled = compile_source(
                program.source,
                config.pipeline_for(level),
                name=program.name,
                fn_store=fn_store,
            )
        except Exception as error:  # noqa: BLE001 - a crash is an outcome
            compiled, failure = None, describe_error(error)
        if level == _FUEL_LEVEL and compiled is not None:
            fuel_module = compiled.module
        for engine in config.engines:
            variant = f"{level}+{engine}"
            if compiled is not None:
                machine = MachineOptions(max_steps=config.max_steps, engine=engine)
                try:
                    outcomes[variant] = run_compiled(compiled, machine)
                    continue
                except Exception as error:  # noqa: BLE001
                    failure = describe_error(error)
            outcomes[variant] = CellFailure(
                program.name, variant, "crash", failure, attempts=1
            )
    report = classify_outcomes(program, outcomes)
    check_fuel_limits(report, config, fuel_module)
    return report


def make_divergence_predicate(
    config: OracleConfig | None = None,
    kind: str | None = None,
):
    """A reducer predicate: does ``source`` still exhibit a divergence?

    Invalid programs (the reducer removes lines blindly, so most probes
    fail to compile) make every cell crash identically, which classifies
    as consistent — i.e. the predicate is ``False`` and the candidate is
    rejected, exactly the behavior ddmin needs.  ``kind`` restricts the
    predicate to one divergence kind so reduction cannot drift from a
    miscompile to an unrelated inconsistency.
    """
    config = config or OracleConfig()
    # one warm memo across every probe: ddmin deletes a few lines per
    # candidate, so most of each probe's functions hit the store
    fn_store = FunctionStore(root=None)

    def predicate(source: str) -> bool:
        report = run_oracle(
            FuzzProgram(seed=-1, source=source), config, fn_store=fn_store
        )
        if kind is None:
            return report.status == "divergent"
        return any(d.kind == kind for d in report.divergences)

    return predicate


def write_divergence_artifact(
    report: OracleReport,
    outdir: str | Path,
    reduced_source: str | None = None,
) -> Path:
    """Persist one divergence as an on-disk artifact directory.

    Layout: ``<outdir>/<program>/program.c`` (the offending source),
    ``report.json`` (Decision-style provenance + per-cell observables),
    and ``reduced.c`` when the reducer ran.
    """
    target = Path(outdir) / report.program.name
    target.mkdir(parents=True, exist_ok=True)
    (target / "program.c").write_text(report.program.source)
    (target / "report.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    if reduced_source is not None:
        (target / "reduced.c").write_text(reduced_source)
    return target


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_with_broken_promotion(base: OracleConfig | None = None) -> OracleConfig:
    """An oracle config whose promoting levels run the deliberately
    unsound promotion (``unsafe_ignore_call_ambiguity``) — the known
    miscompile the reducer and the fuzz self-tests are validated against."""
    base = base or OracleConfig()
    return replace(
        base,
        promotion_options=PromotionOptions(unsafe_ignore_call_ambiguity=True),
    )
