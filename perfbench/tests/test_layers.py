"""The traced run must not change what the program computes, and must
leave the program exactly as it found it."""

from repro import pipeline
from repro.inccomp.store import FunctionStore
from repro.ir.printer import format_module

from perfbench.layers import PIPELINE_LAYERS, STORE_LAYERS, LayerTimer
from perfbench.workloads import CompileCold, compile_cell


def _cells():
    workload = CompileCold(seed=0, seconds=0, traced=False, smoke=True)
    return workload.cells()


def test_traced_ir_is_byte_identical_and_names_are_restored(tmp_path):
    originals = {name: getattr(pipeline, name) for name in PIPELINE_LAYERS}
    store_originals = {name: getattr(FunctionStore, name) for name in STORE_LAYERS}
    cells = _cells()
    untraced = [format_module(compile_cell(cell).module) for cell in cells]

    timer = LayerTimer()
    store = FunctionStore(root=tmp_path / "fn")
    with timer.installed():
        assert pipeline.compile_c is not originals["compile_c"]
        traced = [format_module(compile_cell(cell).module) for cell in cells]
        stored = [format_module(compile_cell(cell, fn_store=store).module) for cell in cells]

    assert traced == untraced
    assert stored == untraced
    for name, original in originals.items():
        assert getattr(pipeline, name) is original, name
    for name, original in store_originals.items():
        assert getattr(FunctionStore, name) is original, name


def test_timer_books_self_time_and_counts():
    timer = LayerTimer()
    with timer.installed():
        modules = [compile_cell(cell).module for cell in _cells()]
    assert timer.self_s["frontend"] > 0
    assert timer.self_s["regalloc"] > 0
    assert timer.counts["frontend.lines"] > 0
    # at least one allocation round per function
    assert timer.counts["regalloc.rounds"] >= sum(len(m.functions) for m in modules)


def test_nested_layer_time_is_not_counted_twice():
    timer = LayerTimer()
    inner = timer.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        for _ in range(20):
            inner()

    timer.wrap("outer", outer_body)()
    total = timer.self_s["outer"] + timer.self_s["inner"]
    assert timer.self_s["inner"] > timer.self_s["outer"] > 0
    assert total == timer.attributed_s()
