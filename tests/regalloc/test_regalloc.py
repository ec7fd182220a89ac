"""Tests for interference graphs, coalescing, coloring, and spilling."""

from repro.analysis.liveness import compute_liveness
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import Function, IRBuilder, Mov, ScalarLoad, ScalarStore
from repro.regalloc import (
    RegAllocOptions,
    allocate_function,
    allocate_module,
    build_interference,
)
from tests.helpers import run_c


def count(func, cls):
    return sum(1 for i in func.instructions() if isinstance(i, cls))


class TestInterference:
    def test_simultaneously_live_interfere(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        c = b.loadi(2)
        total = b.add(a, c)   # a and c live together
        b.ret(total)
        graph = build_interference(func, compute_liveness(func))
        assert graph.interferes(a.id, c.id)

    def test_disjoint_ranges_do_not_interfere(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        doubled = b.add(a, a)      # a dies here
        c = b.loadi(2)             # c born after
        total = b.add(doubled, c)
        b.ret(total)
        graph = build_interference(func, compute_liveness(func))
        assert not graph.interferes(a.id, c.id)

    def test_copy_source_excluded(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        copy = b.mov(a)
        total = b.add(copy, copy)
        b.ret(total)
        graph = build_interference(func, compute_liveness(func))
        # mov dst and src do not interfere through the copy itself
        assert not graph.interferes(a.id, copy.id)

    def test_merge_folds_node(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        c = b.loadi(2)
        d = b.loadi(3)
        t1 = b.add(a, c)
        t2 = b.add(t1, d)
        b.ret(t2)
        graph = build_interference(func, compute_liveness(func))
        before_neighbors = set(graph.adjacency[a.id]) | set(graph.adjacency[c.id])
        graph.merge(a.id, c.id)
        assert c.id not in graph.adjacency
        assert graph.adjacency[a.id] >= before_neighbors - {a.id, c.id}


class TestCoalescing:
    def test_promotion_style_copies_disappear(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(5)
        copy = b.mov(a)             # coalescable
        total = b.add(copy, copy)
        b.ret(total)
        report = allocate_function(func)
        assert report.copies_coalesced >= 1
        assert count(func, Mov) == 0

    def test_interfering_copy_survives(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(5)
        copy = b.mov(a)
        bumped = b.add(a, copy)   # both live here -> interfere? no: copy
        a2 = b.add(a, a)          # a still live after the copy
        total = b.add(bumped, a2)
        b.ret(total)
        expected_before = _run_func_as_main(func)
        allocate_function(func)
        assert _run_func_as_main(func) == expected_before

    def test_end_to_end_copy_counts_drop(self):
        src = r"""
        int g;
        int main(void) {
            int i;
            for (i = 0; i < 50; i++) { g += i; }
            printf("%d\n", g);
            return 0;
        }
        """
        import copy

        from repro.pipeline import PipelineOptions, compile_source

        # promotion alone leaves its copies in the loop for the allocator
        module = compile_source(src, PipelineOptions(optimize=False)).module
        before = run_module(copy.deepcopy(module))
        allocate_module(module)
        after = run_module(module)
        assert after.output == before.output
        assert after.counters.copies < before.counters.copies


class TestSpilling:
    def make_pressure_function(self, width: int) -> Function:
        """width values all live simultaneously, then summed."""
        func = Function("p")
        b = IRBuilder(func)
        b.start_block()
        base = b.sload(__import__("repro.ir", fromlist=["Tag"]).Tag(
            "seed", __import__("repro.ir", fromlist=["TagKind"]).TagKind.GLOBAL
        ))
        values = []
        for i in range(width):
            k = b.loadi(i + 1)
            values.append(b.mul(base, k))  # depends on base: not remat-able
        total = values[0]
        for value in values[1:]:
            total = b.add(total, value)
        b.ret(total)
        return func

    def test_no_spill_when_fits(self):
        func = self.make_pressure_function(8)
        report = allocate_function(func, RegAllocOptions(num_registers=32))
        assert report.spilled_registers == []
        assert report.colors_used <= 32

    def test_spills_when_pressure_exceeds_k(self):
        func = self.make_pressure_function(24)
        report = allocate_function(func, RegAllocOptions(num_registers=8))
        assert report.spilled_registers
        assert count(func, ScalarStore) > 0   # spill code present
        assert count(func, ScalarLoad) > 1

    def test_spill_preserves_semantics(self):
        src = r"""
        int main(void) {
            int a0; int a1; int a2; int a3; int a4; int a5;
            int a6; int a7; int a8; int a9; int a10; int a11;
            a0 = 1; a1 = 2; a2 = 3; a3 = 4; a4 = 5; a5 = 6;
            a6 = 7; a7 = 8; a8 = 9; a9 = 10; a10 = 11; a11 = 12;
            printf("%d\n", a0+a1+a2+a3+a4+a5+a6+a7+a8+a9+a10+a11);
            return 0;
        }
        """
        from repro.pipeline import PipelineOptions, compile_and_run

        tight = PipelineOptions(regalloc=RegAllocOptions(num_registers=4))
        cell = compile_and_run(src, tight)
        assert cell.output == "78\n"

    def test_constants_rematerialized_not_spilled(self):
        """Spilled constant-valued registers are re-issued as loadi, not
        stored to memory."""
        src = r"""
        int total;
        int main(void) {
            int i;
            for (i = 0; i < 30; i++) {
                total += i * 7 + i / 3 + (i << 2) + (i & 5) + i % 11;
            }
            printf("%d\n", total);
            return 0;
        }
        """
        from repro.pipeline import PipelineOptions, compile_and_run

        expected = run_c(src).output
        tight = PipelineOptions(regalloc=RegAllocOptions(num_registers=6))
        cell = compile_and_run(src, tight)
        assert cell.output == expected


def _run_func_as_main(func: Function):
    from repro.ir import Module
    from repro.ir.tags import Tag, TagKind
    from repro.ir.module import GlobalVar
    import copy

    module = Module()
    clone = Function(func.name)
    clone.entry = func.entry
    for label, block in func.blocks.items():
        new = clone.new_block(label=label)
        new.instrs = [i.copy() for i in block.instrs]
    clone.entry = func.entry
    clone.name = "main"
    module.functions["main"] = clone
    return run_module(module).exit_code
