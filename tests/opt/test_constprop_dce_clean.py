"""Tests for SCCP, dead code elimination, and basic-block cleaning."""

from repro.analysis.ssa import Phi
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import (
    Branch,
    Function,
    IRBuilder,
    Jump,
    LoadI,
    MemLoad,
    Mov,
    Ret,
    ScalarLoad,
    ScalarStore,
    Tag,
    TagKind,
    TagSet,
)
from repro.opt.clean import clean_function
from repro.opt.constprop import _prune_phis, run_sccp, run_sccp_module
from repro.opt.dce import run_dce
from tests.helpers import run_c

G = Tag("g", TagKind.GLOBAL)


def count(func, cls):
    return sum(1 for i in func.instructions() if isinstance(i, cls))


class TestSCCP:
    def test_constant_chain_folded(self):
        src = r"""
        int main(void) {
            int a;
            int b;
            a = 6;
            b = a * 7;
            return b;
        }
        """
        module = compile_c(src)
        stats = run_sccp_module(module)
        assert stats.constants_found >= 1
        assert run_module(module).exit_code == 42

    def test_dead_branch_eliminated(self):
        src = r"""
        int main(void) {
            int x;
            x = 1;
            if (x > 0) { return 10; }
            return 20;
        }
        """
        module = compile_c(src)
        stats = run_sccp_module(module)
        assert stats.branches_folded >= 1
        assert run_module(module).exit_code == 10
        main = module.functions["main"]
        assert count(main, Branch) == 0

    def test_constants_through_phi(self):
        # both arms assign the same constant: SCCP proves the merge constant
        src = r"""
        int main(void) {
            int x;
            int y;
            x = 1;
            if (x) { y = 5; } else { y = 5; }
            return y + 1;
        }
        """
        module = compile_c(src)
        run_sccp_module(module)
        assert run_module(module).exit_code == 6

    def test_divergent_phi_stays_bottom(self):
        src = r"""
        int pick(int c) {
            int y;
            if (c) { y = 5; } else { y = 9; }
            return y;
        }
        int main(void) { return pick(1) + pick(0); }
        """
        module = compile_c(src)
        run_sccp_module(module)
        assert run_module(module).exit_code == 14

    def test_prune_phis_drops_unreachable_inputs(self):
        # entry -cbr-> (left | right) -> join; "dead" also jumps to join
        # but nothing reaches it
        func = Function("d")
        r = func.new_vreg()
        func.new_block(label="entry").instrs = [Branch(r, "left", "right")]
        func.new_block(label="left").instrs = [Jump("join")]
        func.new_block(label="right").instrs = [Jump("join")]
        func.new_block(label="join").instrs = [Ret()]
        func.new_block(label="dead").instrs = [Jump("join")]
        phi = Phi(func.new_vreg(), {"left": r, "right": r, "dead": r, "gone": r})
        _prune_phis(func, {"join": [phi]})
        assert "dead" not in func.blocks
        assert list(phi.incoming) == ["left", "right"]

    def test_unreachable_loop_removed(self):
        src = r"""
        int main(void) {
            if (0) {
                while (1) { }
            }
            return 7;
        }
        """
        module = compile_c(src)
        run_sccp_module(module)
        result = run_module(module)
        assert result.exit_code == 7

    def test_loads_are_not_assumed_constant(self):
        src = r"""
        int g;
        void set(void) { g = 3; }
        int main(void) {
            g = 1;
            set();
            return g;       /* must reload: 3, not 1 */
        }
        """
        module = compile_c(src)
        run_sccp_module(module)
        assert run_module(module).exit_code == 3


class TestDCE:
    def test_unused_pure_ops_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        dead = b.loadi(1)
        dead2 = b.add(dead, dead)
        live = b.loadi(2)
        b.ret(live)
        stats = run_dce(func)
        assert stats.removed == 2
        assert count(func, LoadI) == 1

    def test_dead_load_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        b.sload(G)
        b.ret()
        stats = run_dce(func)
        assert stats.removed == 1
        assert count(func, ScalarLoad) == 0

    def test_store_never_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        v = b.loadi(1)
        b.sstore(v, G)
        b.ret()
        run_dce(func)
        assert count(func, ScalarStore) == 1

    def test_call_never_removed(self):
        src = r"""
        int g;
        int bump(void) { g++; return g; }
        int main(void) {
            bump();      /* result unused but side effect must stay */
            return g;
        }
        """
        module = compile_c(src)
        for func in module.functions.values():
            run_dce(func)
        assert run_module(module).exit_code == 1

    def test_transitive_chain_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        c = b.add(a, a)
        d = b.add(c, c)   # only d is dead at first
        b.ret(a)
        stats = run_dce(func)
        # removing d makes c dead, which makes nothing else dead (a is used)
        assert stats.removed == 2

    def test_self_move_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        a = b.loadi(1)
        func.blocks[func.entry].append(Mov(a, a))
        b.ret(a)
        stats = run_dce(func)
        assert stats.removed == 1


class TestClean:
    def test_same_target_branch_folded(self):
        func = Function("f")
        b = IRBuilder(func)
        entry = b.start_block()
        c = b.loadi(1)
        nxt = func.new_block(label="N")
        entry_block = func.block(func.entry)
        entry_block.append(Branch(c, "N", "N"))
        nxt.append(__import__("repro.ir", fromlist=["Ret"]).Ret())
        stats = clean_function(func)
        assert stats.branches_folded == 1

    def test_empty_block_skipped(self):
        func = Function("f")
        b = IRBuilder(func)
        entry = b.start_block()
        b.jmp("E")
        empty = func.new_block(label="E")
        empty.append(Jump("X"))
        target = func.new_block(label="X")
        from repro.ir import Ret

        target.append(Ret())
        stats = clean_function(func)
        assert "E" not in func.blocks
        assert stats.empty_blocks_removed >= 1

    def test_empty_entry_on_a_loop_reroots_its_back_edge(self):
        """An empty entry that a back edge jumps to: skipping it re-roots
        the function at the loop header, and the back edge follows."""
        from repro.ir import Ret
        from repro.ir.verify import verify_function

        func = Function("f")
        func.new_block(label="E").append(Jump("H"))
        header = func.new_block(label="H")
        cond = func.new_vreg()
        header.instrs = [LoadI(cond, 1), Branch(cond, "E", "X")]
        func.new_block(label="X").append(Ret())
        stats = clean_function(func)
        assert func.entry == "H" and "E" not in func.blocks
        assert header.instrs[-1].if_true == "H"
        assert stats.empty_blocks_removed == 1
        verify_function(func)

    def test_chain_merged(self):
        src = r"""
        int main(void) {
            int a;
            a = 1;
            a = a + 1;
            a = a + 1;
            return a;
        }
        """
        module = compile_c(src)
        main = module.functions["main"]
        before = len(main.blocks)
        clean_function(main)
        assert len(main.blocks) <= before
        assert run_module(module).exit_code == 3

    def test_promotion_leftover_pads_removed(self):
        """Landing pads and exits that promotion never used disappear —
        the paper: 'empty blocks are automatically removed after
        optimization'."""
        from repro.analysis.loops import normalize_loops

        src = r"""
        int main(void) {
            int i;
            int s;
            s = 0;
            for (i = 0; i < 4; i++) { s += i; }
            return s;
        }
        """
        module = compile_c(src)
        main = module.functions["main"]
        normalize_loops(main)   # inserts pads/exits
        with_pads = len(main.blocks)
        clean_function(main)
        assert len(main.blocks) < with_pads
        assert run_module(module).exit_code == 6

    def test_unreachable_removed(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        from repro.ir import Ret

        b.ret()
        orphan = func.new_block(label="Z")
        orphan.append(Ret())
        stats = clean_function(func)
        assert "Z" not in func.blocks
        assert stats.unreachable_removed == 1
