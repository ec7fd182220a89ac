"""Tests for local value numbering."""

from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import (
    BinOp,
    Function,
    IRBuilder,
    LoadI,
    MemLoad,
    Mov,
    Opcode,
    ScalarLoad,
    Tag,
    TagKind,
    TagSet,
    VReg,
)
from repro.opt.valuenum import run_value_numbering
from tests.helpers import run_c

G = Tag("g", TagKind.GLOBAL)
H = Tag("h", TagKind.GLOBAL)


def count(func, cls):
    return sum(1 for i in func.instructions() if isinstance(i, cls))


def _two_param_function():
    """A function whose two parameters are unknown values, so value
    numbering can reuse expressions over them but never fold them."""
    x, y = VReg(0, "x"), VReg(1, "y")
    return Function("f", params=[x, y]), x, y


class TestExpressionReuse:
    def test_redundant_binop_becomes_copy(self):
        func, x, y = _two_param_function()
        b = IRBuilder(func)
        b.start_block()
        first = b.add(x, y)
        second = b.add(x, y)
        b.ret(second)
        stats = run_value_numbering(func)
        assert stats.expressions_reused == 1
        assert count(func, Mov) == 1

    def test_commutative_canonicalization(self):
        func, x, y = _two_param_function()
        b = IRBuilder(func)
        b.start_block()
        b.add(x, y)
        flipped = b.add(y, x)
        b.ret(flipped)
        stats = run_value_numbering(func)
        assert stats.expressions_reused == 1

    def test_non_commutative_not_flipped(self):
        func, x, y = _two_param_function()
        b = IRBuilder(func)
        b.start_block()
        b.sub(x, y)
        other = b.sub(y, x)
        b.ret(other)
        stats = run_value_numbering(func)
        assert stats.expressions_reused == 0

    def test_redefined_operand_kills_reuse(self):
        func, x, y = _two_param_function()
        b = IRBuilder(func)
        b.start_block()
        b.add(x, y)
        b.emit(LoadI(x, 99))      # x redefined
        again = b.add(x, y)        # different value now
        b.ret(again)
        stats = run_value_numbering(func)
        assert stats.expressions_reused == 0


class TestConstantFolding:
    def test_folds_arithmetic(self):
        result = run_module(_vn_module("return 2 + 3 * 4;"))
        assert result.exit_code == 14

    def test_division_by_zero_not_folded(self):
        # folding must not hide the runtime trap
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(1)
        z = b.loadi(0)
        q = b.div(x, z)
        b.ret(q)
        stats = run_value_numbering(func)
        assert count(func, BinOp) == 1  # the div survives

    def test_signed_zeros_are_two_constants(self):
        # 0.0 == -0.0, but the return must still read the -0.0 register
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        b.loadi(0.0)
        negative = b.loadi(-0.0)
        b.ret(negative)
        run_value_numbering(func)
        ret = func.block(func.entry).instrs[-1]
        assert ret.value == negative


class TestLoadElimination:
    def test_repeated_sload_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        first = b.sload(G)
        second = b.sload(G)
        total = b.add(first, second)
        b.ret(total)
        stats = run_value_numbering(func)
        assert stats.loads_removed == 1
        assert count(func, ScalarLoad) == 1

    def test_store_to_load_forwarding(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        v = b.loadi(42)
        b.sstore(v, G)
        loaded = b.sload(G)
        b.ret(loaded)
        stats = run_value_numbering(func)
        assert stats.loads_removed == 1
        assert count(func, ScalarLoad) == 0

    def test_intervening_store_blocks_reuse(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        first = b.sload(G)
        v = b.loadi(1)
        b.sstore(v, G)
        second = b.sload(G)   # forwarding from the store, not from first
        total = b.add(first, second)
        b.ret(total)
        run_value_numbering(func)
        # the second load forwards the stored value v
        assert count(func, ScalarLoad) == 1

    def test_store_to_other_tag_does_not_block(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        first = b.sload(G)
        v = b.loadi(1)
        b.sstore(v, H)
        second = b.sload(G)
        total = b.add(first, second)
        b.ret(total)
        stats = run_value_numbering(func)
        assert stats.loads_removed == 1

    def test_call_with_mod_kills_loads(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        first = b.sload(G)
        b.call("spoiler", mod=TagSet.of(G), ref=TagSet.empty())
        second = b.sload(G)
        total = b.add(first, second)
        b.ret(total)
        run_value_numbering(func)
        assert count(func, ScalarLoad) == 2

    def test_pure_call_preserves_loads(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        first = b.sload(G)
        b.call("pure", mod=TagSet.empty(), ref=TagSet.empty())
        second = b.sload(G)
        total = b.add(first, second)
        b.ret(total)
        stats = run_value_numbering(func)
        assert stats.loads_removed == 1

    def test_general_load_same_address(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        addr = b.loadi(0x1000)
        first = b.load(addr, TagSet.of(G))
        second = b.load(addr, TagSet.of(G))
        total = b.add(first, second)
        b.ret(total)
        stats = run_value_numbering(func)
        assert stats.loads_removed == 1


class TestEndToEnd:
    def test_semantics_preserved(self):
        src = r"""
        int g;
        int main(void) {
            int a;
            int b;
            g = 3;
            a = g + g;          /* second sload removed */
            b = g + g;          /* whole expression reused */
            printf("%d %d\n", a, b);
            return 0;
        }
        """
        module = compile_c(src)
        baseline = run_module(compile_c(src))
        from repro.opt.valuenum import run_value_numbering_module

        stats = run_value_numbering_module(module)
        result = run_module(module)
        assert result.output == baseline.output == "6 6\n"
        assert result.counters.loads < baseline.counters.loads


def _vn_module(body: str):
    module = compile_c("int main(void) { " + body + " }")
    from repro.opt.valuenum import run_value_numbering_module

    run_value_numbering_module(module)
    return module
