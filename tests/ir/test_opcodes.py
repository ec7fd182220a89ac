"""Table 1 — the memory-opcode hierarchy, as opcode-set invariants."""

from repro.ir.opcodes import (
    BINARY_OPS,
    COMMUTATIVE_OPS,
    COMPARISON_OPS,
    MEMORY_LOAD_OPS,
    MEMORY_OPS,
    MEMORY_STORE_OPS,
    SWAPPED_COMPARISON,
    TERMINATOR_OPS,
    UNARY_OPS,
    Opcode,
)


class TestTable1Hierarchy:
    def test_loads_per_table1(self):
        """Table 1's load column: cLoad, sLoad, and the general load are
        memory references; iLoad (our loadi) is an immediate, not a load."""
        assert MEMORY_LOAD_OPS == {Opcode.CLOAD, Opcode.SLOAD, Opcode.LOAD}
        assert Opcode.LOADI not in MEMORY_LOAD_OPS

    def test_stores_per_table1(self):
        assert MEMORY_STORE_OPS == {Opcode.SSTORE, Opcode.STORE}

    def test_memory_ops_partition(self):
        assert MEMORY_OPS == MEMORY_LOAD_OPS | MEMORY_STORE_OPS
        assert not MEMORY_LOAD_OPS & MEMORY_STORE_OPS


class TestOpcodeFamilies:
    def test_families_disjoint(self):
        families = [BINARY_OPS, UNARY_OPS, MEMORY_OPS, TERMINATOR_OPS]
        for i, a in enumerate(families):
            for b in families[i + 1:]:
                assert not a & b

    def test_comparisons_are_binary(self):
        assert COMPARISON_OPS <= BINARY_OPS

    def test_commutative_ops_are_binary(self):
        assert COMMUTATIVE_OPS <= BINARY_OPS

    def test_subtraction_and_shifts_not_commutative(self):
        for op in (Opcode.SUB, Opcode.DIV, Opcode.MOD, Opcode.SHL, Opcode.SHR):
            assert op not in COMMUTATIVE_OPS

    def test_terminators(self):
        assert TERMINATOR_OPS == {Opcode.JMP, Opcode.CBR, Opcode.RET}
        assert Opcode.CALL not in TERMINATOR_OPS  # the paper's JSR falls through

    def test_every_opcode_in_some_known_family(self):
        structural = {Opcode.LOADI, Opcode.MOV, Opcode.LA, Opcode.CALL,
                      Opcode.NOP}
        covered = (BINARY_OPS | UNARY_OPS | MEMORY_OPS | TERMINATOR_OPS
                   | structural)
        assert covered == set(Opcode)

    def test_mnemonics_stable(self):
        assert str(Opcode.SLOAD) == "sload"
        assert str(Opcode.CBR) == "cbr"


class TestSwappedComparisons:
    def test_swap_is_involutive(self):
        for op, swapped in SWAPPED_COMPARISON.items():
            assert SWAPPED_COMPARISON[swapped] == op

    def test_equality_fixed_points(self):
        assert SWAPPED_COMPARISON[Opcode.CMP_EQ] == Opcode.CMP_EQ
        assert SWAPPED_COMPARISON[Opcode.CMP_NE] == Opcode.CMP_NE

    def test_orderings_flip(self):
        assert SWAPPED_COMPARISON[Opcode.CMP_LT] == Opcode.CMP_GT
        assert SWAPPED_COMPARISON[Opcode.CMP_LE] == Opcode.CMP_GE

    def test_semantics_of_swap(self):
        from repro.interp.machine import _binop

        for a, b in [(1, 2), (2, 1), (3, 3)]:
            for op, swapped in SWAPPED_COMPARISON.items():
                assert _binop(op, a, b) == _binop(swapped, b, a)
