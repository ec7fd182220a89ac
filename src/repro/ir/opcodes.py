"""Opcode definitions for the tagged intermediate language.

The IL mirrors the ILOC-style representation described in the paper,
including the hierarchy of memory operations from Table 1:

======== ========= =====================================================
Loads    Stores    Purpose
======== ========= =====================================================
`loadi`  —         immediate: load a known constant value
`cload`  —         constant load: an invariant, but unknown value
`sload`  `sstore`  scalar load/store: a value known to be a named scalar
`load`   `store`   general load/store: address computed into a register
======== ========= =====================================================

Scalar memory operations name their location directly through a single
:class:`~repro.ir.tags.Tag`; general memory operations carry a
:class:`~repro.ir.tags.TagSet` describing every location they may touch.
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Every operation the IL can express.

    The enum value is the printable mnemonic.
    """

    # -- arithmetic ------------------------------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"          # C semantics: truncating for ints, exact for floats
    MOD = "mod"          # integers only, C remainder semantics
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"

    # -- comparisons (result is 0 or 1) ---------------------------------
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    CMP_EQ = "cmp_eq"
    CMP_NE = "cmp_ne"

    # -- unary -----------------------------------------------------------
    NEG = "neg"
    NOT = "not"          # bitwise complement
    LNOT = "lnot"        # logical not: 1 if operand == 0 else 0
    I2F = "i2f"          # int -> float conversion
    F2I = "f2i"          # float -> int (truncate toward zero)

    # -- data movement ----------------------------------------------------
    LOADI = "loadi"      # immediate constant -> register
    MOV = "mov"          # register copy (the paper's CP)
    LA = "la"            # load the address of a tagged location

    # -- memory hierarchy (Table 1) ---------------------------------------
    CLOAD = "cload"      # invariant-but-unknown value, named by one tag
    SLOAD = "sload"      # scalar load, named by one tag
    SSTORE = "sstore"    # scalar store, named by one tag
    LOAD = "load"        # general load through an address register
    STORE = "store"      # general store through an address register

    # -- control flow ------------------------------------------------------
    JMP = "jmp"
    CBR = "cbr"          # conditional branch: nonzero -> true target
    RET = "ret"
    CALL = "call"        # the paper's JSR, with MOD/REF tag summaries

    # -- structural ---------------------------------------------------------
    NOP = "nop"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Binary arithmetic/logical opcodes (two register sources, one destination).
BINARY_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.CMP_LT, Opcode.CMP_LE, Opcode.CMP_GT, Opcode.CMP_GE,
    Opcode.CMP_EQ, Opcode.CMP_NE,
})

#: Comparison opcodes (a subset of BINARY_OPS producing 0/1).
COMPARISON_OPS = frozenset({
    Opcode.CMP_LT, Opcode.CMP_LE, Opcode.CMP_GT, Opcode.CMP_GE,
    Opcode.CMP_EQ, Opcode.CMP_NE,
})

#: Unary opcodes (one register source, one destination).
UNARY_OPS = frozenset({
    Opcode.NEG, Opcode.NOT, Opcode.LNOT, Opcode.I2F, Opcode.F2I,
})

#: Opcodes that read memory.  ``loadi`` is excluded: an immediate is not a
#: memory reference and the paper does not count it as a load.
MEMORY_LOAD_OPS = frozenset({Opcode.CLOAD, Opcode.SLOAD, Opcode.LOAD})

#: Opcodes that write memory.
MEMORY_STORE_OPS = frozenset({Opcode.SSTORE, Opcode.STORE})

#: All memory-referencing opcodes.
MEMORY_OPS = MEMORY_LOAD_OPS | MEMORY_STORE_OPS

#: Opcodes that terminate a basic block.
TERMINATOR_OPS = frozenset({Opcode.JMP, Opcode.CBR, Opcode.RET})

#: Commutative binary opcodes, used by value numbering to canonicalize.
COMMUTATIVE_OPS = frozenset({
    Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.CMP_EQ, Opcode.CMP_NE,
})

#: For each comparison, the comparison with swapped operand order.
SWAPPED_COMPARISON = {
    Opcode.CMP_LT: Opcode.CMP_GT,
    Opcode.CMP_GT: Opcode.CMP_LT,
    Opcode.CMP_LE: Opcode.CMP_GE,
    Opcode.CMP_GE: Opcode.CMP_LE,
    Opcode.CMP_EQ: Opcode.CMP_EQ,
    Opcode.CMP_NE: Opcode.CMP_NE,
}
