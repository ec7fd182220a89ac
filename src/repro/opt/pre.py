"""Global redundancy elimination with memory tags (the paper's "partial
redundancy elimination" slot).

The paper's PRE "uses memory tag information to achieve most of the
effects of promotion in straight-line code ... it uses the tag fields to
eliminate redundant loads [and] must treat stores more conservatively."
This pass implements the availability-based core of that transformation:

* candidate expressions are pure computations and loads (``sload`` keyed
  by tag, general ``load`` keyed by address register);
* an expression is *killed* by a redefinition of any operand register,
  and a load is additionally killed by any store or call whose MOD set
  may write one of its tags — this is exactly where the tag information
  pays off;
* classic forward AVAIL data flow (intersection over predecessors) finds
  fully redundant occurrences, which are rewritten into copies from a
  temporary that every providing occurrence feeds.

Stores are never moved or removed (the conservative treatment the paper
describes); insertion-based motion of partially redundant expressions is
left to LICM for the loop cases, matching where the paper's promotion and
LICM pick up the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diag.ledger import Decision
from ..ir.cfg import predecessors, reverse_postorder
from ..ir.function import Function
from ..ir.instructions import (
    MEMORY_LOADS,
    BinOp,
    CLoad,
    Instr,
    LoadAddr,
    MemLoad,
    Mov,
    ScalarLoad,
    UnOp,
)
from ..ir.opcodes import COMMUTATIVE_OPS
from ..ir.tags import Tag


@dataclass
class PREStats:
    expressions_removed: int = 0
    loads_removed: int = 0


def run_pre(func: Function) -> PREStats:
    stats = PREStats()
    exprs = _ExprTable()
    # interning follows ``func.blocks``; each instruction's bit (0 when it
    # computes no expression), then its kill mask, is derived once
    bits = {
        label: [exprs.intern(instr) for instr in block.instrs]
        for label, block in func.blocks.items()
    }
    if not exprs.index:
        return stats
    exprs.seal()

    order = reverse_postorder(func)
    preds = predecessors(func)
    walks = {
        label: [
            (bit, _kill_mask(instr, exprs))
            for bit, instr in zip(bits[label], func.blocks[label].instrs)
        ]
        for label in order
    }

    # local sets: comp(b) = computed and not killed after; transp(b) = not killed
    all_bits = (1 << len(exprs.index)) - 1
    comp: dict[str, int] = {}
    transp: dict[str, int] = {}
    for label in order:
        computed = killed = 0
        for bit, kill in walks[label]:
            # x = x + y computes a value the *new* x invalidates
            computed = (computed | bit) & ~kill
            killed |= kill
        comp[label] = computed
        transp[label] = all_bits & ~killed

    # forward AVAIL: in(b) = AND over preds out(p); out = comp | (in & transp)
    avail_in: dict[str, int] = {label: 0 for label in order}
    avail_out: dict[str, int] = {
        label: all_bits if label != func.entry else comp[label] for label in order
    }
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == func.entry:
                inset = 0
            else:
                inset = all_bits
                for pred in preds[label]:
                    if pred in avail_out:
                        inset &= avail_out[pred]
                if not preds[label]:
                    inset = 0
            outset = comp[label] | (inset & transp[label])
            if inset != avail_in[label] or outset != avail_out[label]:
                avail_in[label] = inset
                avail_out[label] = outset
                changed = True

    # expressions with a fully redundant occurrence, in walk order: the
    # temps are numbered by iterating this set
    redundant: set[int] = set()
    for label in order:
        cur = avail_in[label]
        for bit, kill in walks[label]:
            if cur & bit:
                redundant.add(bit.bit_length() - 1)
            cur = (cur | bit) & ~kill
    if not redundant:
        return stats

    temps = {1 << idx: func.new_vreg("pre") for idx in redundant}
    for label in order:
        cur = avail_in[label]
        block = func.blocks[label]
        new_instrs: list[Instr] = []
        for instr, (bit, kill) in zip(block.instrs, walks[label]):
            temp = temps.get(bit)
            if temp is not None and cur & bit:
                # fully redundant: the temp holds the value
                new_instrs.append(Mov(instr.dest, temp))
                stats.expressions_removed += 1
                if isinstance(instr, MEMORY_LOADS):
                    stats.loads_removed += 1
            else:
                new_instrs.append(instr)
                if temp is not None:
                    # provider: publish the value for downstream redundant uses
                    new_instrs.append(Mov(temp, instr.dest))
            cur = (cur | bit) & ~kill
        block.instrs = new_instrs
    return stats


def pre_decision(func_name: str, stats: PREStats) -> Decision | None:
    """One function's PRE outcome as a decision row; ``None`` when
    nothing was removed."""
    if not stats.expressions_removed:
        return None
    return Decision(
        "pre", func_name, "applied",
        detail={
            "expressions_removed": stats.expressions_removed,
            "loads_removed": stats.loads_removed,
        },
    )


# ---------------------------------------------------------------------------
# expression table
# ---------------------------------------------------------------------------

class _ExprTable:
    def __init__(self) -> None:
        self.index: dict[tuple, int] = {}
        #: register id -> bitmask of expressions using that register
        self.by_reg: dict[int, int] = {}
        #: tag -> bitmask of loads killed by writes to the tag
        self.by_tag: dict[Tag, int] = {}
        #: bitmask of every load expression (killed by universal writes)
        self.all_loads = 0
        #: loads with no ``by_tag`` entry (universal tag sets), which any
        #: memory write kills; set by ``seal`` once the table is complete
        self.untagged_loads = 0

    def intern(self, instr: Instr) -> int:
        """The bit of the expression ``instr`` computes, or 0."""
        expr = _expression(instr)
        if expr is None:
            return 0
        key, uses, tags = expr
        idx = self.index.get(key)
        if idx is not None:
            return 1 << idx
        idx = self.index[key] = len(self.index)
        bit = 1 << idx
        for reg_id in uses:
            self.by_reg[reg_id] = self.by_reg.get(reg_id, 0) | bit
        if tags is not None:
            self.all_loads |= bit
            for tag in tags:
                self.by_tag[tag] = self.by_tag.get(tag, 0) | bit
        return bit

    def seal(self) -> None:
        tagged = 0
        for bits in self.by_tag.values():
            tagged |= bits
        self.untagged_loads = self.all_loads & ~tagged


def _expression(instr: Instr) -> tuple[tuple, tuple[int, ...], object] | None:
    """The expression ``instr`` computes as (key, the register ids it
    reads, its load tags), or None; pure computations have no tags, and a
    load of the universal tag set has none to list."""
    if isinstance(instr, BinOp):
        a, b = instr.lhs.id, instr.rhs.id
        if instr.opcode in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return ("bin", instr.opcode, a, b), (instr.lhs.id, instr.rhs.id), None
    if isinstance(instr, UnOp):
        return ("un", instr.opcode, instr.src.id), (instr.src.id,), None
    if isinstance(instr, LoadAddr):
        return ("la", instr.tag, instr.offset), (), None
    if isinstance(instr, (ScalarLoad, CLoad)):
        return ("sl", instr.tag), (), (instr.tag,)
    if isinstance(instr, MemLoad):
        tags = () if instr.tags.universal else instr.tags
        return ("ld", instr.addr.id), (instr.addr.id,), tags
    return None


# ---------------------------------------------------------------------------
# kills
# ---------------------------------------------------------------------------

def _kill_mask(instr: Instr, exprs: _ExprTable) -> int:
    """Expressions invalidated by executing ``instr``."""
    mask = 0
    dest = instr.dest
    if dest is not None:
        mask |= exprs.by_reg.get(dest.id, 0)
    writes = instr.writes()
    if writes.universal:
        mask |= exprs.all_loads
    elif writes.tags:
        for tag in writes.tags:
            mask |= exprs.by_tag.get(tag, 0)
        # a load of the universal tag set is in no by_tag entry, and any
        # write may reach it
        mask |= exprs.untagged_loads
    return mask
