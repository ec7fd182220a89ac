"""Loop-invariant code motion (a baseline pass in the paper's optimizer).

Moves computations whose operands cannot change inside a loop to the
loop's landing pad.  Two classes move:

* pure operations (``loadi``, ``la``, arithmetic) — division and
  remainder only when the divisor is a provably nonzero constant, because
  hoisting makes the operation unconditional and must not introduce a
  trap the original program avoided;
* loads (``sload``/``cload``/general ``load``) whose tags cannot be
  written inside the loop — no aliasing store and no call whose MOD
  summary overlaps — and, for general loads, whose address register is
  invariant.  (Loads never fault in our machine, so making one
  unconditional is safe.)

The pass is deliberately conservative about the non-SSA IL: an
instruction is only considered when its destination has a single
definition in the whole function and every operand has no definition
inside the loop.

This pass is also what enables the paper's pointer-based promotion
(section 3.3): it places the computation of loop-invariant base
registers in the landing pad, where the promoter can find them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.loops import Loop, LoopForest, def_sites, normalize_loops
from ..diag.ledger import Decision
from ..ir.function import Function
from ..ir.instructions import (
    MEMORY_LOADS,
    BinOp,
    Instr,
    LoadAddr,
    LoadI,
    MemLoad,
    UnOp,
    VReg,
)
from ..ir.module import Module
from ..ir.opcodes import Opcode
from ..ir.tags import TagSet


@dataclass
class LICMStats:
    hoisted: int = 0
    loads_hoisted: int = 0
    #: one ``hoisted`` row per moved instruction
    decisions: list[Decision] = field(default_factory=list)


def run_licm(func: Function, forest: LoopForest) -> LICMStats:
    """Hoist invariant code out of every loop of ``forest``, which is
    ``normalize_loops(func)``."""
    stats = LICMStats()
    if not forest.loops:
        return stats

    sites = def_sites(func)
    for loop in forest.loops_innermost_first():
        _hoist_from_loop(func, loop, sites, stats)
    return stats


def run_licm_module(module: Module) -> LICMStats:
    total = LICMStats()
    for func in module.functions.values():
        stats = run_licm(func, normalize_loops(func))
        total.hoisted += stats.hoisted
        total.loads_hoisted += stats.loads_hoisted
        total.decisions += stats.decisions
    return total


def _hoist_from_loop(
    func: Function,
    loop: Loop,
    sites: dict[int, list[str]],
    stats: LICMStats,
) -> None:
    pad_label = loop.preheader
    pad = func.block(pad_label)
    # what the loop may write
    mods = TagSet.empty()
    for label in loop.blocks:
        for instr in func.block(label).instrs:
            mods = mods.union(instr.writes())

    def invariant_reg(reg: VReg) -> bool:
        return loop.blocks.isdisjoint(sites.get(reg.id, ()))

    changed = True
    while changed:
        changed = False
        for label in sorted(loop.blocks):
            block = func.block(label)
            kept: list[Instr] = []
            for instr in block.instrs:
                if _hoistable(instr, mods, invariant_reg, sites):
                    pad.instrs.insert(len(pad.instrs) - 1, instr)
                    dest = instr.dest
                    assert dest is not None
                    sites[dest.id] = [pad_label]
                    stats.hoisted += 1
                    if isinstance(instr, MEMORY_LOADS):
                        stats.loads_hoisted += 1
                    stats.decisions.append(
                        Decision(
                            "licm", func.name, "hoisted", loop=loop.header,
                            tag=getattr(instr, "tag", None)
                            and str(instr.tag),  # type: ignore[attr-defined]
                            detail={"opcode": instr.opcode.value, "from": label},
                        )
                    )
                    changed = True
                else:
                    kept.append(instr)
            block.instrs = kept


def _hoistable(
    instr: Instr,
    mods: TagSet,
    invariant_reg,
    sites: dict[int, list[str]],
) -> bool:
    dest = instr.dest
    if dest is None or len(sites[dest.id]) != 1:
        return False
    if isinstance(instr, (LoadI, LoadAddr)):
        return True
    if isinstance(instr, BinOp):
        if not (invariant_reg(instr.lhs) and invariant_reg(instr.rhs)):
            return False
        if instr.opcode in (Opcode.DIV, Opcode.MOD):
            return False  # could trap if made unconditional
        return True
    if isinstance(instr, UnOp):
        return invariant_reg(instr.src)
    if isinstance(instr, MemLoad) and not invariant_reg(instr.addr):
        return False
    if isinstance(instr, MEMORY_LOADS):
        return not mods.overlaps(instr.reads())
    return False
