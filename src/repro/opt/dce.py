"""Dead code elimination.

An instruction is dead when it writes a register nobody reads and has
no side effect.  Loads are deletable (removing a dead load is both
legal and exactly the kind of memory-traffic reduction the paper's
optimizer performs); stores, calls, terminators and divisions (which
may trap) are never removed by this pass.
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
        return False
    return True


def run_dce(func: Function) -> DCEStats:
    """Delete self-copies and removable instructions whose register is
    never read, to a fixpoint.

    Uses are counted once, by register id, and decremented as their
    readers go; a sweep repeats only when some count fell to zero."""
    stats = DCEStats()
    use_counts: dict[int, int] = {}
    for instr in func.instructions():
        for reg in instr.uses():
            use_counts[reg.id] = use_counts.get(reg.id, 0) + 1
    changed = True
    while changed:
        changed = False
        for block in func.blocks.values():
            kept: list[Instr] = []
            # backwards, so a dead chain inside one block goes in one sweep
            for instr in reversed(block.instrs):
                dest = instr.dest
                dead = (instr.__class__ is Mov and instr.dst.id == instr.src.id) or (
                    dest is not None
                    and not use_counts.get(dest.id, 0)
                    and _is_removable(instr)
                )
                if not dead:
                    kept.append(instr)
                    continue
                stats.removed += 1
                for reg in instr.uses():
                    use_counts[reg.id] -= 1
                    if not use_counts[reg.id]:
                        changed = True
            if len(kept) != len(block.instrs):
                kept.reverse()
                block.instrs = kept
    return stats
