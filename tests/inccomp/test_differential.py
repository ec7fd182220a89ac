"""The incremental-vs-from-scratch differential: the correctness
contract of `repro.inccomp`, enforced across the whole workload matrix.

For every workload and pipeline configuration: populate a function
store by compiling the pristine source, mutate exactly one function
(dead-local edit — IR-changing but summary-neutral), then recompile
incrementally and from scratch.  The two compiles must be *observably
indistinguishable*: byte-identical printed IR, byte-identical
decision rows, equal pass-report aggregates — and the incremental one
must have re-optimized only the edited function.
"""

from __future__ import annotations

import pytest

from repro.inccomp import FunctionStore, mutate_function
from repro.ir.printer import format_module
from repro.pipeline import Analysis, PipelineOptions, compile_source, paper_variants
from repro.workloads import get_workload, workload_names

CONFIGS = {
    "full": PipelineOptions(),
    "pointer": PipelineOptions(analysis=Analysis.POINTER, pointer_promotion=True),
}


def _compile_with_ledger(source, options, name, defines, fn_store=None):
    result = compile_source(
        source, options, name=name, defines=defines or None, fn_store=fn_store
    )
    return result, [d.as_dict() for d in result.decisions]


@pytest.mark.slow  # full 14x2 matrix; the quick lane keeps the warm and
# ledger tests below plus tests/props for per-edit coverage
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload_name", workload_names())
def test_incremental_recompile_is_byte_identical(workload_name, config):
    wl = get_workload(workload_name)
    options = CONFIGS[config]
    store = FunctionStore(root=None)

    # populate the store from the pristine source
    _compile_with_ledger(wl.source, options, wl.name, wl.defines, fn_store=store)

    edited_source, edited_fn = mutate_function(wl.source)
    assert edited_source != wl.source

    incremental, inc_ledger = _compile_with_ledger(
        edited_source, options, wl.name, wl.defines, fn_store=store
    )
    scratch, scratch_ledger = _compile_with_ledger(
        edited_source, options, wl.name, wl.defines
    )

    assert format_module(incremental.module) == format_module(scratch.module)
    assert inc_ledger == scratch_ledger

    # only the edited function was re-optimized
    total = len(incremental.module.functions)
    assert incremental.fn_cache_misses == 1, (
        f"edit to {edited_fn} should miss exactly once, got "
        f"{incremental.fn_cache_misses} misses / {incremental.fn_cache_hits} hits"
    )
    assert incremental.fn_cache_hits == total - 1

    # pass-report aggregates replayed from cache match fresh ones
    assert set(incremental.promotion_reports) == set(scratch.promotion_reports)
    for name, report in scratch.promotion_reports.items():
        replayed = incremental.promotion_reports[name]
        assert replayed.promoted_tags == report.promoted_tags
        assert replayed.references_rewritten == report.references_rewritten
    assert {
        name: report.coloring
        for name, report in incremental.regalloc_reports.items()
    } == {
        name: report.coloring for name, report in scratch.regalloc_reports.items()
    }


@pytest.mark.parametrize("workload_name", ["dhrystone", "compress"])
def test_warm_recompile_hits_every_function(workload_name):
    wl = get_workload(workload_name)
    store = FunctionStore(root=None)
    first, _ = _compile_with_ledger(
        wl.source, PipelineOptions(), wl.name, wl.defines, fn_store=store
    )
    warm, _ = _compile_with_ledger(
        wl.source, PipelineOptions(), wl.name, wl.defines, fn_store=store
    )
    assert warm.fn_cache_misses == 0
    assert warm.fn_cache_hits == len(warm.module.functions)
    assert format_module(warm.module) == format_module(first.module)


def test_warm_compile_replays_the_fresh_rows():
    """One key namespace serves every compile: a second compile of the
    same program hits every function and replays the first's rows."""
    wl = get_workload("dhrystone")
    store = FunctionStore(root=None)
    fresh, rows = _compile_with_ledger(
        wl.source, PipelineOptions(), wl.name, wl.defines, fn_store=store
    )
    assert fresh.fn_cache_hits == 0
    assert rows  # the passes actually returned decisions
    warm, replayed_rows = _compile_with_ledger(
        wl.source, PipelineOptions(), wl.name, wl.defines, fn_store=store
    )
    assert warm.fn_cache_misses == 0
    assert warm.fn_cache_hits == len(warm.module.functions)
    assert replayed_rows == rows


VARIANTS = paper_variants(pointer_promotion=True)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("workload_name", workload_names())
def test_decisions_survive_every_store_path(workload_name, variant, tmp_path):
    """A fresh compile, a memory-layer hit and a disk hit (a new store
    on the same directory) return equal decision rows."""
    wl = get_workload(workload_name)
    options = VARIANTS[variant]
    store = FunctionStore(root=tmp_path)
    fresh, rows = _compile_with_ledger(
        wl.source, options, wl.name, wl.defines, fn_store=store
    )
    memory_hit, memory_rows = _compile_with_ledger(
        wl.source, options, wl.name, wl.defines, fn_store=store
    )
    disk_hit, disk_rows = _compile_with_ledger(
        wl.source, options, wl.name, wl.defines,
        fn_store=FunctionStore(root=tmp_path),
    )
    assert fresh.fn_cache_hits == 0
    for warm in (memory_hit, disk_hit):
        assert warm.fn_cache_misses == 0
        assert warm.fn_cache_hits == len(warm.module.functions)
    assert rows
    assert memory_rows == rows
    assert disk_rows == rows
