"""The compile-time benchmark: from-scratch vs incremental vs warm.

``repro bench --compile`` measures, for every workload in the suite,
four compilations of the same program under one pipeline configuration:

* **scratch** — no function store at all: the full pre-inccomp cost.
* **cold** — an empty store: scratch work plus key computation and
  entry writes (the overhead side of the trade).
* **incremental** — exactly one function edited (a dead-local insertion
  via :func:`~repro.inccomp.edits.mutate_function`), recompiled against
  the populated store: parse + analysis + one function optimized, the
  rest spliced from cache.  This is the scenario the CI gate holds to a
  ≥2× speedup over scratch.
* **warm** — the unchanged source recompiled: every function hits.

Each incremental compile is also checked byte-identical (printed IR)
against a from-scratch compile of the same edited source, so the bench
cannot report a speedup from a wrong answer; ``identical`` lands in the
payload and the gate requires it.
"""

from __future__ import annotations

import tempfile
from time import perf_counter

from ..inccomp import FunctionStore, mutate_function
from ..ir.printer import format_module
from ..pipeline import PipelineOptions, compile_source
from ..workloads import all_workloads, get_workload
from . import bench_payload

__all__ = ["bench_compile", "check_compile_gate", "format_compile_bench"]

BENCH_SCHEMA = 1


def _compile(source, options, name, defines, fn_store=None):
    started = perf_counter()
    result = compile_source(
        source, options, name=name, defines=defines or None, fn_store=fn_store
    )
    return result, perf_counter() - started


def bench_compile(names: list[str] | None = None) -> dict:
    """Run the four-scenario compile benchmark over the workload suite.

    The function store lives in a throwaway temporary directory, so
    benching never warms (or is warmed by) the real ``.repro-cache/fn``.
    """
    options = PipelineOptions()
    workloads = (
        [get_workload(name) for name in names]
        if names is not None
        else all_workloads()
    )
    programs = []
    totals = {"scratch_s": 0.0, "cold_s": 0.0, "incremental_s": 0.0, "warm_s": 0.0}
    with tempfile.TemporaryDirectory(prefix="repro-bench-fn-") as store_root:
        for wl in workloads:
            store = FunctionStore(root=store_root)
            scratch, scratch_s = _compile(wl.source, options, wl.name, wl.defines)
            _, cold_s = _compile(
                wl.source, options, wl.name, wl.defines, fn_store=store
            )
            _, warm_s = _compile(
                wl.source, options, wl.name, wl.defines, fn_store=store
            )
            edited_source, edited_fn = mutate_function(wl.source)
            hits_before, misses_before = store.hits, store.misses
            inc, incremental_s = _compile(
                edited_source, options, wl.name, wl.defines, fn_store=store
            )
            edited_scratch, _ = _compile(
                edited_source, options, wl.name, wl.defines
            )
            identical = format_module(inc.module) == format_module(
                edited_scratch.module
            )
            row = {
                "name": wl.name,
                "functions": len(inc.module.functions),
                "edited_function": edited_fn,
                "scratch_s": round(scratch_s, 6),
                "cold_s": round(cold_s, 6),
                "incremental_s": round(incremental_s, 6),
                "warm_s": round(warm_s, 6),
                "incremental_hits": store.hits - hits_before,
                "incremental_misses": store.misses - misses_before,
                "identical": identical,
            }
            programs.append(row)
            totals["scratch_s"] += scratch_s
            totals["cold_s"] += cold_s
            totals["incremental_s"] += incremental_s
            totals["warm_s"] += warm_s
            del scratch, inc, edited_scratch

    def ratio(num: float, den: float) -> float:
        return round(num / den, 3) if den > 0 else 0.0

    return bench_payload(
        BENCH_SCHEMA,
        variant=options.variant_name(),
        programs=programs,
        totals={k: round(v, 6) for k, v in totals.items()},
        speedup={
            "incremental": ratio(totals["scratch_s"], totals["incremental_s"]),
            "warm": ratio(totals["scratch_s"], totals["warm_s"]),
            "cold_overhead": ratio(totals["cold_s"], totals["scratch_s"]),
        },
        all_identical=all(p["identical"] for p in programs),
    )


def format_compile_bench(payload: dict) -> str:
    """Human-readable table of the benchmark payload."""
    lines = [
        f"compile bench [{payload['variant']}] — seconds per compile",
        f"{'program':<12} {'fns':>4} {'scratch':>9} {'cold':>9} "
        f"{'incr':>9} {'warm':>9} {'hit/miss':>9} ident",
    ]
    for p in payload["programs"]:
        lines.append(
            f"{p['name']:<12} {p['functions']:>4} {p['scratch_s']:>9.4f} "
            f"{p['cold_s']:>9.4f} {p['incremental_s']:>9.4f} "
            f"{p['warm_s']:>9.4f} "
            f"{p['incremental_hits']:>4}/{p['incremental_misses']:<4} "
            f"{'yes' if p['identical'] else 'NO'}"
        )
    t, s = payload["totals"], payload["speedup"]
    lines.append(
        f"{'TOTAL':<12} {'':>4} {t['scratch_s']:>9.4f} {t['cold_s']:>9.4f} "
        f"{t['incremental_s']:>9.4f} {t['warm_s']:>9.4f}"
    )
    lines.append(
        f"speedup vs scratch: incremental {s['incremental']:g}x, "
        f"warm {s['warm']:g}x; cold overhead {s['cold_overhead']:g}x"
    )
    return "\n".join(lines)


def check_compile_gate(payload: dict, min_speedup: float = 2.0) -> list[str]:
    """The CI gate: incremental must beat scratch and stay correct."""
    problems = []
    if not payload.get("all_identical", False):
        broken = [
            p["name"] for p in payload.get("programs", []) if not p["identical"]
        ]
        problems.append(
            f"incremental IR differs from scratch for: {', '.join(broken)}"
        )
    speedup = payload.get("speedup", {}).get("incremental", 0.0)
    if speedup < min_speedup:
        problems.append(
            f"one-function-edit speedup {speedup:g}x is below the "
            f"{min_speedup:g}x floor"
        )
    return problems
