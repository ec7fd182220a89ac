"""Unit tests for IL instruction classes."""

import pytest

from repro.ir import (
    BinOp,
    Branch,
    Call,
    CLoad,
    Jump,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    Mov,
    Nop,
    Opcode,
    Ret,
    ScalarLoad,
    ScalarStore,
    Tag,
    TagKind,
    TagSet,
    UnOp,
    VReg,
    branch_targets,
    is_memory_load,
    is_memory_op,
    is_memory_store,
    retarget,
)

R0, R1, R2 = VReg(0), VReg(1), VReg(2)
T = Tag("g", TagKind.GLOBAL)


class TestVReg:
    def test_equality_ignores_hint(self):
        assert VReg(3, "x") == VReg(3, "y")
        assert hash(VReg(3, "x")) == hash(VReg(3, "y"))

    def test_distinct_ids_differ(self):
        assert VReg(3) != VReg(4)

    def test_str_uses_hint(self):
        assert str(VReg(5, "count")) == "%count5"
        assert str(VReg(5)) == "%r5"


class TestUsesAndDefs:
    @pytest.mark.parametrize(
        "instr,uses,dest",
        [
            (BinOp(Opcode.ADD, R0, R1, R2), (R1, R2), R0),
            (UnOp(Opcode.NEG, R0, R1), (R1,), R0),
            (LoadI(R0, 5), (), R0),
            (Mov(R0, R1), (R1,), R0),
            (LoadAddr(R0, T), (), R0),
            (CLoad(R0, T), (), R0),
            (ScalarLoad(R0, T), (), R0),
            (ScalarStore(R1, T), (R1,), None),
            (MemLoad(R0, R1, TagSet.of(T)), (R1,), R0),
            (MemStore(R0, R1, TagSet.of(T)), (R0, R1), None),
            (Jump("L"), (), None),
            (Branch(R0, "A", "B"), (R0,), None),
            (Ret(R0), (R0,), None),
            (Ret(), (), None),
            (Nop(), (), None),
        ],
    )
    def test_uses_defs(self, instr, uses, dest):
        assert instr.uses() == uses
        assert instr.dest == dest

    def test_call_uses(self):
        call = Call(R0, "f", [R1, R2])
        assert call.uses() == (R1, R2)
        assert call.dest == R0

    def test_indirect_call_uses_callee_reg(self):
        call = Call(None, None, [R1], callee_reg=R2)
        assert call.uses() == (R2, R1)
        assert call.is_indirect()

    def test_call_requires_target(self):
        with pytest.raises(ValueError):
            Call(None, None, [])


class TestReplaceUses:
    def test_binop(self):
        instr = BinOp(Opcode.ADD, R0, R1, R2)
        instr.replace_uses({R1: R2})
        assert instr.uses() == (R2, R2)

    def test_replace_does_not_touch_dest(self):
        instr = Mov(R0, R1)
        instr.replace_uses({R0: R2, R1: R2})
        assert instr.dst == R0
        assert instr.src == R2

    def test_memstore_replaces_both(self):
        instr = MemStore(R0, R1, TagSet.of(T))
        instr.replace_uses({R0: R2, R1: R2})
        assert instr.uses() == (R2, R2)


class TestOpcodeValidation:
    def test_binop_rejects_unary_opcode(self):
        with pytest.raises(ValueError):
            BinOp(Opcode.NEG, R0, R1, R2)

    def test_unop_rejects_binary_opcode(self):
        with pytest.raises(ValueError):
            UnOp(Opcode.ADD, R0, R1)


class TestMemoryClassification:
    def test_loads(self):
        assert is_memory_load(ScalarLoad(R0, T))
        assert is_memory_load(CLoad(R0, T))
        assert is_memory_load(MemLoad(R0, R1, TagSet.universe()))
        assert not is_memory_load(LoadI(R0, 1))  # immediates are not loads

    def test_stores(self):
        assert is_memory_store(ScalarStore(R0, T))
        assert is_memory_store(MemStore(R0, R1, TagSet.universe()))
        assert not is_memory_store(ScalarLoad(R0, T))

    def test_memory_op(self):
        assert is_memory_op(ScalarLoad(R0, T))
        assert not is_memory_op(Mov(R0, R1))


class TestTagSets:
    """``reads()``/``writes()``: each instruction's memory effect."""

    def test_scalar_ops_singleton(self):
        for instr in (ScalarLoad(R0, T), CLoad(R0, T)):
            assert set(instr.reads()) == {T} and instr.writes().is_empty()
        store = ScalarStore(R0, T)
        assert set(store.writes()) == {T} and store.reads().is_empty()

    def test_pointer_ops_read_or_write_their_tags(self):
        t2 = Tag("h", TagKind.GLOBAL)
        load = MemLoad(R0, R1, TagSet.of(T, t2))
        assert set(load.reads()) == {T, t2} and load.writes().is_empty()
        store = MemStore(R0, R1, TagSet.of(t2))
        assert set(store.writes()) == {t2} and store.reads().is_empty()
        # universal sets pass through unmaterialized
        assert MemLoad(R0, R1, TagSet.universe()).reads().universal
        assert MemStore(R0, R1, TagSet.universe()).writes().universal

    def test_call_reads_ref_and_writes_mod(self):
        t2 = Tag("h", TagKind.GLOBAL)
        call = Call(None, "f", [], mod=TagSet.of(T), ref=TagSet.of(t2))
        assert set(call.reads()) == {t2}
        assert set(call.writes()) == {T}

    def test_call_defaults_universal(self):
        call = Call(None, "f", [])
        assert call.mod.universal and call.ref.universal
        assert call.reads().universal and call.writes().universal

    @pytest.mark.parametrize(
        "instr",
        [
            LoadAddr(R0, T),
            LoadI(R0, 1),
            Mov(R0, R1),
            BinOp(Opcode.ADD, R0, R0, R1),
            UnOp(Opcode.NEG, R0, R1),
            Jump("L"),
            Branch(R0, "L1", "L2"),
            Ret(R0),
            Nop(),
        ],
        ids=lambda instr: type(instr).__name__,
    )
    def test_other_instructions_touch_no_memory(self, instr):
        # taking an address references no memory
        assert instr.reads().is_empty() and instr.writes().is_empty()


class TestControlFlow:
    def test_branch_targets(self):
        assert branch_targets(Jump("X")) == ("X",)
        assert branch_targets(Branch(R0, "A", "B")) == ("A", "B")
        assert branch_targets(Branch(R0, "A", "A")) == ("A",)
        assert branch_targets(Ret()) == ()

    def test_retarget_jump(self):
        j = Jump("A")
        retarget(j, "A", "B")
        assert j.target == "B"

    def test_retarget_branch_both_edges(self):
        b = Branch(R0, "A", "A")
        retarget(b, "A", "B")
        assert b.if_true == "B" and b.if_false == "B"

    def test_terminators(self):
        assert Jump("L").is_terminator()
        assert Branch(R0, "A", "B").is_terminator()
        assert Ret().is_terminator()
        assert not Call(None, "f", []).is_terminator()


class TestCopy:
    @pytest.mark.parametrize(
        "instr",
        [
            BinOp(Opcode.MUL, R0, R1, R2),
            UnOp(Opcode.I2F, R0, R1),
            LoadI(R0, 2.5),
            Mov(R0, R1),
            LoadAddr(R0, T, 8),
            ScalarLoad(R0, T),
            ScalarStore(R1, T),
            MemLoad(R0, R1, TagSet.of(T)),
            MemStore(R0, R1, TagSet.universe()),
            Jump("L"),
            Branch(R0, "A", "B"),
            Ret(R0),
            Call(R0, "f", [R1], site_id=3),
            CLoad(R0, T),
            Nop(),
        ],
    )
    def test_copy_is_equal_but_distinct(self, instr):
        dup = instr.copy()
        assert dup is not instr
        assert str(dup) == str(instr)
        assert type(dup) is type(instr)
