"""Unit tests for basic blocks, functions, and modules."""

import pytest

from repro.errors import IRError
from repro.ir import (
    BasicBlock,
    Branch,
    Function,
    GlobalVar,
    IRBuilder,
    Jump,
    LoadI,
    Module,
    Mov,
    Phi,
    Ret,
    Tag,
    TagKind,
    VReg,
)


def two_block_function() -> Function:
    func = Function("f")
    b = IRBuilder(func)
    entry = b.start_block()
    one = b.loadi(1)
    exit_block = func.new_block()
    b.cbr(one, exit_block, exit_block)
    b.set_block(exit_block)
    b.ret(one)
    return func


class TestBasicBlock:
    def test_append_to_terminated_block_fails(self):
        block = BasicBlock("B")
        block.append(Ret())
        with pytest.raises(IRError):
            block.append(Ret())

    def test_successors_from_terminator(self):
        block = BasicBlock("B", [Branch(VReg(0), "X", "Y")])
        assert block.successors() == ("X", "Y")

    def test_unterminated_block(self):
        block = BasicBlock("B", [LoadI(VReg(0), 1)])
        assert block.terminator is None
        assert block.successors() == ()
        assert not block.is_terminated()

    def test_phis_prefix(self):
        block = BasicBlock("B")
        p1 = Phi(VReg(0), {})
        block.instrs = [p1, LoadI(VReg(1), 0), Jump("X")]
        assert block.phis() == [p1]
        assert block.first_non_phi_index() == 1

    def test_body_excludes_terminator(self):
        load = LoadI(VReg(0), 1)
        block = BasicBlock("B", [load, Ret()])
        assert block.body() == [load]


class TestFunction:
    def test_first_block_is_entry(self):
        func = Function("f")
        block = func.new_block()
        assert func.entry == block.label

    def test_duplicate_label_rejected(self):
        func = Function("f")
        func.new_block(label="B0")
        with pytest.raises(IRError):
            func.new_block(label="B0")

    def test_new_vreg_ids_increase(self):
        func = Function("f")
        a = func.new_vreg()
        b = func.new_vreg()
        assert b.id == a.id + 1

    def test_vregs_start_above_params(self):
        func = Function("f", params=[VReg(0), VReg(1)])
        assert func.new_vreg().id >= 2

    def test_reserve_vreg_ids(self):
        func = Function("f")
        func.reserve_vreg_ids(100)
        assert func.new_vreg().id == 101

    def test_max_vreg_id(self):
        func = two_block_function()
        assert func.max_vreg_id() == func.new_vreg().id - 1

    def test_cannot_remove_entry(self):
        func = Function("f")
        func.new_block(label="B0")
        with pytest.raises(IRError):
            func.remove_block("B0")

    def test_unknown_block_lookup(self):
        func = Function("f")
        with pytest.raises(IRError):
            func.block("nope")


class TestSplitEdge:
    def test_split_jump_edge(self):
        func = Function("f")
        a = func.new_block(label="A")
        b_blk = func.new_block(label="B")
        a.append(Jump("B"))
        b_blk.append(Ret())
        mid = func.split_edge("A", "B")
        assert a.successors() == (mid.label,)
        assert mid.successors() == ("B",)

    def test_split_branch_edge_updates_phi(self):
        func = Function("f")
        a = func.new_block(label="A")
        b_blk = func.new_block(label="B")
        c = func.new_block(label="C")
        r = func.new_vreg()
        a.append(Branch(r, "B", "C"))
        phi = Phi(func.new_vreg(), {"A": r})
        b_blk.instrs = [phi, Ret()]
        c.append(Ret())
        mid = func.split_edge("A", "B")
        assert phi.incoming == {mid.label: r}
        assert a.successors() == (mid.label, "C")

    def test_split_missing_edge_fails(self):
        func = Function("f")
        a = func.new_block(label="A")
        a.append(Ret())
        func.new_block(label="B").append(Ret())
        with pytest.raises(IRError):
            func.split_edge("A", "B")


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module()
        module.add_function(Function("f"))
        with pytest.raises(IRError):
            module.add_function(Function("f"))

    def test_duplicate_global_rejected(self):
        module = Module()
        var = GlobalVar(Tag("g", TagKind.GLOBAL), size=4, elem_size=4)
        module.add_global(var)
        with pytest.raises(IRError):
            module.add_global(
                GlobalVar(Tag("g", TagKind.GLOBAL), size=4, elem_size=4)
            )

    def test_string_interning(self):
        module = Module()
        a = module.add_string("hi")
        b = module.add_string("hi")
        c = module.add_string("ho")
        assert a is b
        assert a.tag != c.tag

    def test_heap_tags_by_site(self):
        module = Module()
        s1 = module.new_call_site()
        s2 = module.new_call_site()
        assert s1 != s2
        t1 = module.heap_tag_for_site(s1)
        assert module.heap_tag_for_site(s1) == t1
        assert module.heap_tag_for_site(s2) != t1
        assert not t1.is_scalar

    def test_memory_tags_covers_globals_locals_heap(self):
        module = Module()
        gvar = GlobalVar(Tag("g", TagKind.GLOBAL), size=4, elem_size=4)
        module.add_global(gvar)
        func = Function("f")
        local = Tag("f.x", TagKind.LOCAL, owner="f")
        func.local_tags.append(local)
        module.add_function(func)
        heap = module.heap_tag_for_site(module.new_call_site())
        tags = set(module.memory_tags())
        assert {gvar.tag, local, heap} <= tags

