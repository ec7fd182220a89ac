"""Interpreter throughput benchmark — the ``repro bench`` command.

Runs workload programs under both execution engines (the
per-instruction reference loop and the compiled tier), checks that they
agree on every observable (counters, output, exit code — the same
contract the differential oracle in
``tests/interp/test_engine_equiv.py`` enforces), and reports wall-clock,
ops/sec, and the compiled-vs-simple speedup.  The result
is written as ``BENCH_interp.json`` so the interpreter's performance
trajectory is tracked in-repo; see ``docs/PERFORMANCE.md`` for how to
read it.

Timing covers interpretation only (compilation is outside the clock).
The compiled engine gets one untimed warm-up run (its generated code
lives on the module and persists across runs), then every engine gets
``repeats`` timed runs; the best wall time wins — the steady state the
suite runner actually sees.

:func:`check_regression` compares a fresh payload against a committed
baseline: the per-pair geomean speedups are host-independent ratios, so
CI can gate on them with a noise tolerance without pinning wall times.
"""

from __future__ import annotations

import math
import time

from ..errors import ReproError
from ..interp import Machine, MachineOptions
from ..pipeline import PipelineOptions, compile_source
from ..workloads import all_workloads, get_workload
from . import bench_payload

ENGINES = ("simple", "compiled")

#: (numerator, denominator) speedup pairs reported in the summary
ENGINE_PAIRS = (("compiled", "simple"),)

BENCH_SCHEMA = 3


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_interpreters(
    names: list[str] | None = None,
    *,
    repeats: int = 2,
    max_steps: int = 500_000_000,
) -> dict:
    """Benchmark every engine over ``names`` (default: all 14 workloads).

    Returns the ``BENCH_interp.json`` payload: per program and engine,
    ``{wall_s, total_ops, ops_per_sec, engine, speedup_vs_simple}``, plus
    a summary with the geomean/min/max speedup of every engine pair.  Raises
    :class:`~repro.errors.ReproError` if the engines disagree on any
    observable — a benchmark of engines computing different things would
    be meaningless.
    """
    options = PipelineOptions()
    workloads = (
        [get_workload(name) for name in names] if names else all_workloads()
    )
    programs: dict[str, dict] = {}
    for workload in workloads:
        runs: dict[str, tuple[float, object]] = {}
        for engine in ENGINES:
            module = compile_source(
                workload.source, options, name=workload.name,
                defines=workload.defines,
            ).module
            machine_options = MachineOptions(engine=engine, max_steps=max_steps)
            if engine == "compiled":
                # prime the on-module cache of generated code so timed
                # runs measure the steady state
                Machine(module, machine_options).run()
            best = math.inf
            result = None
            for _ in range(max(repeats, 1)):
                machine = Machine(module, machine_options)
                started = time.perf_counter()
                result = machine.run()
                best = min(best, time.perf_counter() - started)
            runs[engine] = (best, result)
        reference = runs["simple"][1]
        for engine in ENGINES[1:]:
            run = runs[engine][1]
            if (
                reference.counters != run.counters
                or reference.output != run.output
                or reference.exit_code != run.exit_code
            ):
                raise ReproError(
                    f"engines disagree on {workload.name}: "
                    f"simple {reference.counters} exit {reference.exit_code}"
                    f" vs {engine} {run.counters} exit {run.exit_code}"
                )
        entry: dict[str, dict] = {}
        for engine in ENGINES:
            wall, run = runs[engine]
            wall = max(round(wall, 6), 1e-6)
            ops = run.counters.total_ops
            entry[engine] = {
                "wall_s": wall,
                "total_ops": ops,
                "ops_per_sec": round(ops / wall, 1),
                "engine": engine,
                "speedup_vs_simple": 1.0,
            }
        entry["compiled"]["speedup_vs_simple"] = round(
            entry["simple"]["wall_s"] / entry["compiled"]["wall_s"], 3
        )
        programs[workload.name] = entry

    def pair_speedups(num: str, den: str) -> list[float]:
        return [
            max(entry[den]["wall_s"], 1e-9) / max(entry[num]["wall_s"], 1e-9)
            for entry in programs.values()
        ]

    speedups_summary: dict[str, dict] = {}
    for num, den in ENGINE_PAIRS:
        values = pair_speedups(num, den)
        speedups_summary[f"{num}_vs_{den}"] = {
            "geomean": round(_geomean(values), 3),
            "min": round(min(values), 3) if values else 0.0,
            "max": round(max(values), 3) if values else 0.0,
        }

    return bench_payload(
        BENCH_SCHEMA,
        repeats=max(repeats, 1),
        max_steps=max_steps,
        programs=programs,
        summary={
            "programs": len(programs),
            "speedups": speedups_summary,
            **{
                f"total_wall_{engine}_s": round(
                    sum(e[engine]["wall_s"] for e in programs.values()), 6
                )
                for engine in ENGINES
            },
        },
    )


def baseline_pairs(baseline: dict) -> dict:
    """The ``summary.speedups`` pairs of a baseline payload.

    Raises :class:`ValueError` when there are none: such a file is not an
    interpreter bench payload (e.g. ``BENCH_compile.json``), and gating
    against it would pass vacuously.
    """
    summary = baseline.get("summary") if isinstance(baseline, dict) else None
    pairs = summary.get("speedups") if isinstance(summary, dict) else None
    if not isinstance(pairs, dict) or not pairs:
        raise ValueError("no summary.speedups pairs (not a BENCH_interp.json?)")
    return pairs


def check_regression(
    payload: dict, baseline: dict, tolerance_pct: float
) -> list[str]:
    """Compare ``payload`` against a committed ``baseline`` payload.

    Gates on the per-pair geomean speedups (host-independent ratios):
    a pair present in both summaries fails when the fresh geomean drops
    more than ``tolerance_pct`` percent below the baseline's.  Returns
    the list of failure messages (empty = no regression).  A baseline
    pair the fresh run no longer reports is not gated; a baseline with
    no pairs at all raises (see :func:`baseline_pairs`).
    """
    failures: list[str] = []
    base_pairs = baseline_pairs(baseline)
    cur_pairs = payload.get("summary", {}).get("speedups", {})
    for pair, base_cell in sorted(base_pairs.items()):
        base_geo = float(base_cell.get("geomean", 0.0))
        cur_cell = cur_pairs.get(pair)
        if cur_cell is None or base_geo <= 0:
            continue
        cur_geo = float(cur_cell["geomean"])
        floor = base_geo * (1.0 - tolerance_pct / 100.0)
        if cur_geo < floor:
            failures.append(
                f"{pair}: geomean speedup {cur_geo:.3f}x fell below "
                f"{floor:.3f}x (baseline {base_geo:.3f}x - {tolerance_pct:g}%)"
            )
    return failures


def format_bench(payload: dict) -> str:
    """Human-readable table for one bench payload."""
    lines = [
        f"{'program':<12} {'engine':<9} {'wall s':>10} {'total ops':>12} "
        f"{'ops/sec':>14} {'speedup':>8}",
        "-" * 70,
    ]
    for name, entry in payload["programs"].items():
        for engine in ENGINES:
            cell = entry.get(engine)
            if cell is None:
                continue
            lines.append(
                f"{name:<12} {engine:<9} {cell['wall_s']:>10.4f} "
                f"{cell['total_ops']:>12} {cell['ops_per_sec']:>14,.0f} "
                f"{cell['speedup_vs_simple']:>7.2f}x"
            )
    summary = payload["summary"]
    lines.append("-" * 70)
    for pair, cell in summary.get("speedups", {}).items():
        label = pair.replace("_vs_", " vs ")
        lines.append(
            f"geomean speedup {label:<20} {cell['geomean']:>6.2f}x "
            f"(min {cell['min']:.2f}x, max {cell['max']:.2f}x)"
        )
    return "\n".join(lines)

