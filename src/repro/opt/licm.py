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

from ..analysis.loops import Loop, LoopForest, normalize_loops
from ..diag.ledger import Decision
from ..ir.function import Function
from ..ir.instructions import (
    MEMORY_LOADS,
    BinOp,
    Call,
    CLoad,
    Instr,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    ScalarLoad,
    ScalarStore,
    UnOp,
    VReg,
)
from ..ir.module import Module
from ..ir.opcodes import Opcode
from ..ir.tags import Tag, TagSet


@dataclass
class LICMStats:
    hoisted: int = 0
    loads_hoisted: int = 0
    #: one ``hoisted`` row per moved instruction
    decisions: list[Decision] = field(default_factory=list)


@dataclass
class _LoopMods:
    """What a loop may write."""

    universal: bool = False
    tags: set[Tag] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.tags is None:
            self.tags = set()

    def may_write(self, tags: TagSet) -> bool:
        if self.universal:
            return bool(tags)
        if tags.universal:
            return bool(self.tags)
        return any(t in self.tags for t in tags)

    def may_write_tag(self, tag: Tag) -> bool:
        return self.universal or tag in self.tags


def run_licm(func: Function, forest: LoopForest) -> LICMStats:
    """Hoist invariant code out of every loop of ``forest``, which is
    ``normalize_loops(func)``."""
    stats = LICMStats()
    if not forest.loops:
        return stats

    def_blocks: dict[int, set[str]] = {}
    def_counts: dict[int, int] = {}
    for reg in func.params:
        def_counts[reg.id] = def_counts.get(reg.id, 0) + 1
        def_blocks.setdefault(reg.id, set()).add("<entry>")
    for label, block in func.blocks.items():
        for instr in block.instrs:
            if instr.dest is not None:
                def_counts[instr.dest.id] = def_counts.get(instr.dest.id, 0) + 1
                def_blocks.setdefault(instr.dest.id, set()).add(label)

    for loop in forest.loops_innermost_first():
        _hoist_from_loop(func, loop, def_blocks, def_counts, stats)
    return stats


def run_licm_module(module: Module) -> LICMStats:
    total = LICMStats()
    for func in module.functions.values():
        stats = run_licm(func, normalize_loops(func))
        total.hoisted += stats.hoisted
        total.loads_hoisted += stats.loads_hoisted
        total.decisions += stats.decisions
    return total


def _loop_mods(func: Function, loop: Loop) -> _LoopMods:
    mods = _LoopMods()
    for label in loop.blocks:
        for instr in func.block(label).instrs:
            if isinstance(instr, ScalarStore):
                mods.tags.add(instr.tag)
            elif isinstance(instr, MemStore):
                if instr.tags.universal:
                    mods.universal = True
                else:
                    mods.tags.update(instr.tags)
            elif isinstance(instr, Call):
                if instr.mod.universal:
                    mods.universal = True
                else:
                    mods.tags.update(instr.mod)
    return mods


def _hoist_from_loop(
    func: Function,
    loop: Loop,
    def_blocks: dict[int, set[str]],
    def_counts: dict[int, int],
    stats: LICMStats,
) -> None:
    pad_label = loop.preheader
    pad = func.block(pad_label)
    mods = _loop_mods(func, loop)

    def invariant_reg(reg: VReg) -> bool:
        blocks = def_blocks.get(reg.id, set())
        return not (blocks & loop.blocks)

    changed = True
    while changed:
        changed = False
        for label in sorted(loop.blocks):
            block = func.block(label)
            kept: list[Instr] = []
            for instr in block.instrs:
                if _hoistable(instr, mods, invariant_reg, def_counts):
                    pad.instrs.insert(len(pad.instrs) - 1, instr)
                    dest = instr.dest
                    assert dest is not None
                    def_blocks[dest.id].discard(label)
                    def_blocks[dest.id].add(pad_label)
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
    mods: _LoopMods,
    invariant_reg,
    def_counts: dict[int, int],
) -> bool:
    dest = instr.dest
    if dest is None or def_counts.get(dest.id, 0) != 1:
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
    if isinstance(instr, (ScalarLoad, CLoad)):
        return not mods.may_write_tag(instr.tag)
    if isinstance(instr, MemLoad):
        return invariant_reg(instr.addr) and not mods.may_write(instr.tags)
    return False
