"""Tests for PRE (available-expression redundancy elimination) and LICM."""

from textwrap import dedent

from repro.analysis.loops import normalize_loops
from repro.analysis.modref import run_modref
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import (
    CLoad,
    Function,
    IRBuilder,
    MemLoad,
    Mov,
    ScalarLoad,
    Tag,
    TagKind,
    TagSet,
)
from repro.ir.parser import parse_module
from repro.opt.licm import run_licm, run_licm_module
from repro.opt.pre import run_pre
from tests.helpers import run_c

G = Tag("g", TagKind.GLOBAL)


def count(func, cls):
    return sum(1 for i in func.instructions() if isinstance(i, cls))


def cross_block_redundant_load() -> Function:
    """sload g in the entry and again in both branches."""
    func = Function("f")
    b = IRBuilder(func)
    entry = b.set_block(func.new_block(label="entry"))
    first = b.sload(G)
    left = func.new_block(label="left")
    right = func.new_block(label="right")
    b.cbr(first, left, right)
    b.set_block(left)
    l_val = b.sload(G)
    b.ret(l_val)
    b.set_block(right)
    r_val = b.sload(G)
    b.ret(r_val)
    return func


class TestPRE:
    def test_cross_block_load_removed(self):
        func = cross_block_redundant_load()
        stats = run_pre(func)
        assert stats.loads_removed == 2
        assert count(func, ScalarLoad) == 1

    def test_partial_availability_not_removed(self):
        # g loaded on only one path: the join's load is NOT fully
        # redundant and must survive (this pass never inserts)
        func = Function("f")
        b = IRBuilder(func)
        entry = b.set_block(func.new_block(label="entry"))
        c = b.loadi(1)
        left = func.new_block(label="left")
        join = func.new_block(label="join")
        b.cbr(c, left, join)
        b.set_block(left)
        b.sload(G)
        b.jmp(join)
        b.set_block(join)
        v = b.sload(G)
        b.ret(v)
        stats = run_pre(func)
        assert stats.loads_removed == 0
        assert count(func, ScalarLoad) == 2

    def test_store_kills_availability(self):
        func = Function("f")
        b = IRBuilder(func)
        entry = b.set_block(func.new_block(label="entry"))
        first = b.sload(G)
        mid = func.new_block(label="mid")
        b.jmp(mid)
        b.set_block(mid)
        one = b.loadi(1)
        b.sstore(one, G)
        second = b.sload(G)
        total = b.add(first, second)
        b.ret(total)
        stats = run_pre(func)
        assert stats.loads_removed == 0

        # an sstore also kills a load of the universal tag set, which no
        # tag names; without the store the second load is redundant
        text = """
        global g size=4

        func f(%p0) {
        B0: ; entry
            %a1 = load [%p0] [*]
            jmp B1
        B1:
            %v2 = loadi 1
            {store}
            %b3 = load [%p0] [*]
            %s4 = add %a1, %b3
            ret %s4
        }
        """
        for store, removed in (("sstore %v2 -> [g]", 0), ("nop", 1)):
            func = parse_module(dedent(text).replace("{store}", store)).functions["f"]
            assert run_pre(func).loads_removed == removed

    def test_pure_expression_reused_across_blocks(self):
        func = Function("f")
        b = IRBuilder(func)
        entry = b.set_block(func.new_block(label="entry"))
        x = b.loadi(3)
        y = b.loadi(4)
        first = b.add(x, y)
        nxt = func.new_block(label="next")
        b.jmp(nxt)
        b.set_block(nxt)
        second = b.add(x, y)
        b.ret(second)
        stats = run_pre(func)
        assert stats.expressions_removed == 1

    def test_end_to_end_straightline_effect(self):
        """The paper: PRE achieves most of promotion's effect in
        straight-line code by eliminating redundant loads via tags."""
        src = r"""
        int g;
        int use(int a) { return a + 1; }
        int main(void) {
            int a;
            int b;
            int c;
            g = 10;
            a = use(g);
            b = use(g);
            c = use(g);
            printf("%d\n", a + b + c);
            return 0;
        }
        """
        module = compile_c(src)
        run_modref(module)  # use() is pure: calls do not kill g
        baseline_loads = run_module(compile_c(src)).counters.loads
        for func in module.functions.values():
            run_pre(func)
        result = run_module(module)
        assert result.output == "33\n"
        assert result.counters.loads < baseline_loads


class TestLICM:
    def test_invariant_expression_hoisted(self):
        src = r"""
        int main(void) {
            int i;
            int n;
            int total;
            n = 10;
            total = 0;
            for (i = 0; i < 100; i++) {
                total += n * n;    /* n*n is invariant */
            }
            printf("%d\n", total);
            return 0;
        }
        """
        module = compile_c(src)
        baseline_ops = run_module(compile_c(src)).counters.total_ops
        run_licm_module(module)
        result = run_module(module)
        assert result.output == "10000\n"
        assert result.counters.total_ops < baseline_ops

    def test_load_of_unmodified_tag_hoisted(self):
        src = r"""
        int limit;
        int main(void) {
            int i;
            int total;
            limit = 7;
            total = 0;
            for (i = 0; i < 50; i++) { total += limit; }
            printf("%d\n", total);
            return 0;
        }
        """
        module = compile_c(src)
        baseline_loads = run_module(compile_c(src)).counters.loads
        run_licm_module(module)
        result = run_module(module)
        assert result.output == "350\n"
        assert result.counters.loads < baseline_loads

    def test_load_of_modified_tag_not_hoisted(self):
        src = r"""
        int g;
        int main(void) {
            int i;
            int total;
            total = 0;
            for (i = 0; i < 5; i++) {
                total += g;
                g = g + 1;
            }
            printf("%d %d\n", total, g);
            return 0;
        }
        """
        module = compile_c(src)
        expected = run_module(compile_c(src)).output
        run_licm_module(module)
        assert run_module(module).output == expected == "10 5\n"

    def test_division_not_speculated(self):
        src = r"""
        int main(void) {
            int i;
            int d;
            int total;
            d = 0;
            total = 0;
            for (i = 0; i < 10; i++) {
                if (d != 0) { total += 100 / d; }
            }
            printf("%d\n", total);
            return 0;
        }
        """
        module = compile_c(src)
        run_licm_module(module)
        # hoisting 100/d would trap; if we get here with the right answer
        # the pass stayed safe
        assert run_module(module).output == "0\n"

    def test_nested_loops_hoist_to_outermost(self):
        src = r"""
        int base;
        int main(void) {
            int i;
            int j;
            int total;
            base = 4;
            total = 0;
            for (i = 0; i < 10; i++) {
                for (j = 0; j < 10; j++) {
                    total += base * base;
                }
            }
            printf("%d\n", total);
            return 0;
        }
        """
        module = compile_c(src)
        run_licm_module(module)
        result = run_module(module)
        assert result.output == "1600\n"
        # base*base executes once, not 100 times: far fewer multiplies
        assert result.counters.loads <= 4

    def test_call_blocks_load_hoisting(self):
        src = r"""
        int g;
        void bump(void) { g++; }
        int main(void) {
            int i;
            int total;
            total = 0;
            for (i = 0; i < 4; i++) {
                total += g;
                bump();
            }
            printf("%d %d\n", total, g);
            return 0;
        }
        """
        module = compile_c(src)
        run_modref(module)
        expected = run_module(compile_c(src)).output
        run_licm_module(module)
        assert run_module(module).output == expected == "6 4\n"

        # a call's MOD set blocks the loads of its tags; a universal one,
        # every load
        text = """
        global g size=4
        global h size=4

        func f(%p0) {
        B0: ; entry
            jmp B1
        B1:
            %a1 = sload [g]
            %b2 = sload [h]
            %c3 = load [%p0] [h]
            %d4 = load [%p0] [*]
            call bump() mod={mod} ref=[]
            %t5 = loadi 1
            cbr %t5 ? B1 : B2
        B2:
            ret
        }
        """
        for mod, hoisted in (("[g]", ["h", None]), ("[*]", []), ("[]", ["g", "h", None, None])):
            func = parse_module(dedent(text).replace("{mod}", mod)).functions["f"]
            stats = run_licm(func, normalize_loops(func))
            loads = [d.tag for d in stats.decisions if d.detail["opcode"] != "loadi"]
            assert loads == hoisted, mod
