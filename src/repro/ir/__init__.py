"""Tagged intermediate language (IL) for the register-promotion compiler.

The IL mirrors the essential features of the paper's ILOC-style
representation: virtual registers, the Table 1 memory-opcode hierarchy,
per-operation tag lists, and per-call MOD/REF summaries.
"""

from .builder import IRBuilder
from .function import BasicBlock, Function
from .instructions import (
    BinOp,
    Branch,
    Call,
    CLoad,
    Instr,
    Jump,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    Mov,
    Nop,
    Ret,
    ScalarLoad,
    ScalarStore,
    UnOp,
    VReg,
    branch_targets,
    is_memory_load,
    is_memory_op,
    is_memory_store,
    retarget,
)
from .module import GlobalVar, Module, StringLiteral
from .opcodes import (
    BINARY_OPS,
    COMMUTATIVE_OPS,
    COMPARISON_OPS,
    MEMORY_LOAD_OPS,
    MEMORY_OPS,
    MEMORY_STORE_OPS,
    TERMINATOR_OPS,
    UNARY_OPS,
    Opcode,
)
from .parser import parse_module
from .printer import dump, format_function, format_module
from .tags import Tag, TagKind, TagSet
from .verify import verify_function, verify_module

__all__ = [
    "BasicBlock",
    "BinOp",
    "Branch",
    "BINARY_OPS",
    "Call",
    "CLoad",
    "COMMUTATIVE_OPS",
    "COMPARISON_OPS",
    "Function",
    "GlobalVar",
    "Instr",
    "IRBuilder",
    "Jump",
    "LoadAddr",
    "LoadI",
    "MemLoad",
    "MemStore",
    "MEMORY_LOAD_OPS",
    "MEMORY_OPS",
    "MEMORY_STORE_OPS",
    "Module",
    "Mov",
    "Nop",
    "Opcode",
    "Ret",
    "ScalarLoad",
    "ScalarStore",
    "StringLiteral",
    "Tag",
    "TagKind",
    "TagSet",
    "TERMINATOR_OPS",
    "UnOp",
    "UNARY_OPS",
    "VReg",
    "branch_targets",
    "dump",
    "format_function",
    "format_module",
    "parse_module",
    "is_memory_load",
    "is_memory_op",
    "is_memory_store",
    "retarget",
    "verify_function",
    "verify_module",
]
