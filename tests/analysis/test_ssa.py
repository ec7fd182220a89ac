"""Tests for SSA construction and destruction."""

from repro.analysis.ssa import Phi, SSAInfo, construct_ssa, destruct_ssa
from repro.frontend import compile_c
from repro.interp import run_module
from repro.ir import Branch, Function, IRBuilder, Jump, Mov, Ret, verify_function


def loop_counter_function() -> Function:
    """i = 0; while (i < 10) i = i + 1; return i  — in raw IL."""
    func = Function("count")
    b = IRBuilder(func)
    entry = b.start_block("entry")
    i = b.loadi(0, hint="i")
    header = func.new_block(label="H")
    body = func.new_block(label="B")
    exit_ = func.new_block(label="X")
    b.jmp(header)

    b.set_block(header)
    ten = b.loadi(10)
    from repro.ir import BinOp, Opcode

    cond = func.new_vreg()
    header.append(BinOp(Opcode.CMP_LT, cond, i, ten))
    b.cbr(cond, body, exit_)

    b.set_block(body)
    one = b.loadi(1)
    tmp = b.add(i, one)
    b.mov(tmp, dst=i)
    b.jmp(header)

    b.set_block(exit_)
    b.ret(i)
    return func


class TestConstructSSA:
    def test_single_assignment_holds(self):
        func = loop_counter_function()
        info = construct_ssa(func)
        verify_function(func, ssa=True)
        # the verifier sees the instructions only: phi destinations must
        # not be defined anywhere else either
        defined = list(func.params)
        defined += [i.dest for i in func.instructions() if i.dest is not None]
        defined += [phi.dst for phis in info.phis.values() for phi in phis]
        assert len(defined) == len(set(defined))

    def test_phi_placed_at_loop_header(self):
        func = loop_counter_function()
        info = construct_ssa(func)
        assert set(info.phis) == {"H"}
        assert len(info.phis["H"]) >= 1
        for phi in info.phis["H"]:
            assert set(phi.incoming) == {func.entry, "B"}

    def test_straightline_needs_no_phis(self):
        func = Function("s")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(1)
        y = b.add(x, x)
        b.ret(y)
        info = construct_ssa(func)
        assert info.phis == {}
        verify_function(func, ssa=True)

    def test_origin_tracks_versions(self):
        func = loop_counter_function()
        info = construct_ssa(func)
        # every phi versions a register the function defined before SSA
        for phi in info.phis["H"]:
            assert info.origin_of(phi.dst).hint == "i"
            assert info.origin_of(phi.dst) != phi.dst


class TestDestructSSA:
    def test_round_trip_preserves_semantics(self):
        src = r"""
        int main(void) {
            int i;
            int total;
            total = 0;
            for (i = 0; i < 10; i++) {
                if (i % 2 == 0) {
                    total += i;
                } else {
                    total += 2 * i;
                }
            }
            printf("%d\n", total);
            return total;
        }
        """
        module = compile_c(src)
        expected = run_module(module)

        module2 = compile_c(src)
        for func in module2.functions.values():
            info = construct_ssa(func)
            verify_function(func, ssa=True)
            assert info.phis
            destruct_ssa(func, info)
            verify_function(func)
            assert info.phis == {}
        actual = run_module(module2)
        assert actual.output == expected.output
        assert actual.exit_code == expected.exit_code

    def test_swap_problem_handled(self):
        # a, b = b, a in a loop: phi cycle requiring parallel-copy temps
        src = r"""
        int main(void) {
            int a;
            int b;
            int t;
            int i;
            a = 1;
            b = 2;
            for (i = 0; i < 5; i++) {
                t = a;
                a = b;
                b = t;
            }
            printf("%d %d\n", a, b);
            return 0;
        }
        """
        module = compile_c(src)
        expected = run_module(module)
        module2 = compile_c(src)
        for func in module2.functions.values():
            destruct_ssa(func, construct_ssa(func))
            verify_function(func)
        actual = run_module(module2)
        assert actual.output == expected.output == "2 1\n"

    def test_phi_input_routed_through_split_edge(self):
        # A -cbr-> (B, C) and C -> B: A->B is critical, so the copy for
        # the phi input from A must land in the block that splits it
        func = Function("f")
        a = func.new_block(label="A")
        b_blk = func.new_block(label="B")
        c = func.new_block(label="C")
        r, s, d = func.new_vreg(), func.new_vreg(), func.new_vreg()
        a.instrs = [Branch(r, "B", "C")]
        c.instrs = [Jump("B")]
        b_blk.instrs = [Ret(d)]
        info = SSAInfo(phis={"B": [Phi(d, {"A": r, "C": s})]})
        destruct_ssa(func, info)
        verify_function(func)
        (mid,) = [label for label in func.blocks if label not in "ABC"]
        assert a.successors() == (mid, "C")
        assert [str(i) for i in func.block(mid).instrs] == [
            str(Mov(d, r)),
            str(Jump("B")),
        ]
        assert str(c.instrs[0]) == str(Mov(d, s))
