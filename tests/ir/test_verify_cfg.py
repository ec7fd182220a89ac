"""Unit tests for the verifier and the CFG utilities."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Branch,
    Function,
    IRBuilder,
    Jump,
    LoadI,
    Mov,
    Ret,
    verify_function,
)
from repro.ir.cfg import (
    postorder,
    predecessors,
    remove_unreachable_blocks,
    reverse_postorder,
    split_critical_edges,
)


def diamond() -> Function:
    """entry -> (left | right) -> join -> ret"""
    func = Function("d")
    b = IRBuilder(func)
    entry = b.set_block(func.new_block(label="entry"))
    cond = b.loadi(1)
    left = func.new_block(label="left")
    right = func.new_block(label="right")
    join = func.new_block(label="join")
    b.cbr(cond, left, right)
    b.set_block(left)
    b.jmp(join)
    b.set_block(right)
    b.jmp(join)
    b.set_block(join)
    b.ret()
    assert entry.label == func.entry
    return func


class TestVerifier:
    def test_accepts_diamond(self):
        verify_function(diamond())

    def test_rejects_missing_terminator(self):
        func = Function("f")
        block = func.new_block()
        block.append(LoadI(func.new_vreg(), 1))
        with pytest.raises(IRError, match="terminator"):
            verify_function(func)

    def test_rejects_empty_block(self):
        func = Function("f")
        func.new_block()
        with pytest.raises(IRError, match="empty"):
            verify_function(func)

    def test_rejects_unknown_target(self):
        func = Function("f")
        func.new_block().append(Jump("nowhere"))
        with pytest.raises(IRError, match="unknown block"):
            verify_function(func)

    def test_rejects_mid_block_terminator(self):
        func = Function("f")
        block = func.new_block(label="A")
        block.instrs = [Ret(), Ret()]
        with pytest.raises(IRError, match="not last"):
            verify_function(func)

    def test_ssa_mode_rejects_double_def(self):
        func = Function("f")
        block = func.new_block()
        r = func.new_vreg()
        block.instrs = [LoadI(r, 1), LoadI(r, 2), Ret()]
        verify_function(func)  # fine in non-SSA mode
        with pytest.raises(IRError, match="defined in both"):
            verify_function(func, ssa=True)


class TestCFG:
    def test_predecessors(self):
        func = diamond()
        preds = predecessors(func)
        assert sorted(preds["join"]) == ["left", "right"]
        assert preds[func.entry] == []

    def test_postorder_ends_at_entry(self):
        func = diamond()
        order = postorder(func)
        assert order[-1] == func.entry
        assert set(order) == set(func.blocks)

    def test_reverse_postorder_starts_at_entry(self):
        func = diamond()
        order = reverse_postorder(func)
        assert order[0] == func.entry
        # join must come after both left and right
        assert order.index("join") > order.index("left")
        assert order.index("join") > order.index("right")

    def test_remove_unreachable(self):
        func = diamond()
        dead = func.new_block("dead")
        dead.append(Jump("join"))
        removed = remove_unreachable_blocks(func)
        assert removed == [dead.label]
        assert dead.label not in func.blocks

    def test_split_critical_edges(self):
        # A -cbr-> (B, C); B also reached from D: edge A->B is critical
        func = Function("f")
        b = IRBuilder(func)
        a = b.set_block(func.new_block(label="A"))
        cond = b.loadi(1)
        bb = func.new_block(label="B")
        cc = func.new_block(label="C")
        b.cbr(cond, bb, cc)
        cc.append(Branch(cond, "B", "D"))
        dd = func.new_block(label="D")
        dd.append(Jump("B"))
        bb.append(Ret())
        splits = split_critical_edges(func)
        # A->B and C->B are critical
        assert [(src, dst) for src, dst, _ in splits] == [("A", "B"), ("C", "B")]
        assert all(func.block(mid).successors() == ("B",) for _, _, mid in splits)
        verify_function(func)
        # B now has only single-successor predecessors
        preds = predecessors(func)
        for pred in preds["B"]:
            assert len(func.block(pred).successors()) == 1
