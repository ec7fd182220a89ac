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
    Call,
    CLoad,
    Instr,
    LoadAddr,
    MemLoad,
    MemStore,
    Mov,
    ScalarLoad,
    ScalarStore,
    UnOp,
    VReg,
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
    _collect(func, exprs)
    if not exprs.keys:
        return stats

    order = reverse_postorder(func)
    preds = predecessors(func)
    comp, transp = _local_sets(func, order, exprs)

    # forward AVAIL: in(b) = AND over preds out(p); out = comp | (in & transp)
    all_bits = (1 << len(exprs.keys)) - 1
    avail_in: dict[str, int] = {label: 0 for label in order}
    avail_out: dict[str, int] = {
        label: all_bits if label != func.entry else comp[label] for label in order
    }
    avail_out[func.entry] = comp[func.entry]
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

    redundant = _find_redundant(func, order, exprs, avail_in)
    if not redundant:
        return stats
    _rewrite(func, order, exprs, avail_in, redundant, stats)
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
        self.keys: list[tuple] = []
        self.index: dict[tuple, int] = {}
        #: register id -> bitmask of expressions using that register
        self.by_reg: dict[int, int] = {}
        #: tag -> bitmask of loads killed by writes to the tag
        self.by_tag: dict[Tag, int] = {}
        #: bitmask of every load expression (killed by universal writes)
        self.all_loads = 0
        #: loads with no ``by_tag`` entry (universal tag sets), which any
        #: memory write kills; set once the table is complete
        self.untagged_loads = 0

    def intern(self, key: tuple, uses: tuple[int, ...], tags, is_load: bool) -> int:
        idx = self.index.get(key)
        if idx is not None:
            return idx
        idx = len(self.keys)
        self.keys.append(key)
        self.index[key] = idx
        bit = 1 << idx
        for reg_id in uses:
            self.by_reg[reg_id] = self.by_reg.get(reg_id, 0) | bit
        if is_load:
            self.all_loads |= bit
            if tags is not None and not tags.universal:
                for tag in tags:
                    self.by_tag[tag] = self.by_tag.get(tag, 0) | bit
        return idx


def _key_of(instr: Instr) -> tuple | None:
    """The expression key an instruction computes, or None."""
    if isinstance(instr, BinOp):
        a, b = instr.lhs.id, instr.rhs.id
        if instr.opcode in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return ("bin", instr.opcode, a, b)
    if isinstance(instr, UnOp):
        return ("un", instr.opcode, instr.src.id)
    if isinstance(instr, LoadAddr):
        return ("la", instr.tag, instr.offset)
    if isinstance(instr, (ScalarLoad, CLoad)):
        return ("sl", instr.tag)
    if isinstance(instr, MemLoad):
        return ("ld", instr.addr.id)
    return None


def _collect(func: Function, exprs: _ExprTable) -> None:
    for block in func.blocks.values():
        for instr in block.instrs:
            key = _key_of(instr)
            if key is None:
                continue
            if isinstance(instr, (ScalarLoad, CLoad)):
                exprs.intern(key, (), _SingleTag(instr.tag), True)
            elif isinstance(instr, MemLoad):
                exprs.intern(key, (instr.addr.id,), instr.tags, True)
            elif isinstance(instr, BinOp):
                exprs.intern(key, (instr.lhs.id, instr.rhs.id), None, False)
            elif isinstance(instr, UnOp):
                exprs.intern(key, (instr.src.id,), None, False)
            elif isinstance(instr, LoadAddr):
                exprs.intern(key, (), None, False)
    tagged = 0
    for bits in exprs.by_tag.values():
        tagged |= bits
    exprs.untagged_loads = exprs.all_loads & ~tagged


class _SingleTag:
    """Minimal tag-set shim for interning scalar loads."""

    universal = False

    def __init__(self, tag: Tag) -> None:
        self._tag = tag

    def __iter__(self):
        return iter((self._tag,))


# ---------------------------------------------------------------------------
# kills
# ---------------------------------------------------------------------------

def _kill_mask(instr: Instr, exprs: _ExprTable) -> int:
    """Expressions invalidated by executing ``instr``."""
    mask = 0
    dest = instr.dest
    if dest is not None:
        mask |= exprs.by_reg.get(dest.id, 0)
    if isinstance(instr, ScalarStore):
        mask |= exprs.by_tag.get(instr.tag, 0)
        # a store to t also kills general loads whose tag set contains t,
        # which by_tag already covers; universal-tagged loads are covered
        # by their absence from by_tag — kill them explicitly:
        mask |= exprs.untagged_loads
    elif isinstance(instr, MemStore):
        if instr.tags.universal:
            mask |= exprs.all_loads
        else:
            for tag in instr.tags:
                mask |= exprs.by_tag.get(tag, 0)
            mask |= exprs.untagged_loads
    elif isinstance(instr, Call):
        if instr.mod.universal:
            mask |= exprs.all_loads
        elif instr.mod:
            for tag in instr.mod:
                mask |= exprs.by_tag.get(tag, 0)
            mask |= exprs.untagged_loads
    return mask


def _local_sets(func: Function, order, exprs: _ExprTable):
    comp: dict[str, int] = {}
    transp: dict[str, int] = {}
    all_bits = (1 << len(exprs.keys)) - 1
    for label in order:
        computed = 0
        killed = 0
        for instr in func.block(label).instrs:
            key = _key_of(instr)
            kill = _kill_mask(instr, exprs)
            computed &= ~kill
            killed |= kill
            if key is not None:
                bit = 1 << exprs.index[key]
                # x = x + y computes a value the *new* x invalidates
                if not (kill & bit):
                    computed |= bit
        comp[label] = computed
        transp[label] = all_bits & ~killed
    return comp, transp


# ---------------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------------

def _find_redundant(func: Function, order, exprs: _ExprTable, avail_in) -> set[int]:
    """Indices of expressions with at least one fully redundant occurrence."""
    redundant: set[int] = set()
    for label in order:
        cur = avail_in[label]
        for instr in func.block(label).instrs:
            key = _key_of(instr)
            if key is not None:
                bit = 1 << exprs.index[key]
                if cur & bit:
                    redundant.add(exprs.index[key])
            kill = _kill_mask(instr, exprs)
            cur &= ~kill
            if key is not None:
                bit = 1 << exprs.index[key]
                if not (kill & bit):
                    cur |= bit
    return redundant


def _rewrite(func: Function, order, exprs, avail_in, redundant, stats: PREStats) -> None:
    temps: dict[int, VReg] = {
        idx: func.new_vreg("pre") for idx in redundant
    }
    for label in order:
        cur = avail_in[label]
        block = func.block(label)
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            key = _key_of(instr)
            idx = exprs.index.get(key) if key is not None else None
            bit = 1 << idx if idx is not None else 0
            if idx in temps and (cur & bit):
                # fully redundant: the temp holds the value
                assert instr.dest is not None
                new_instrs.append(Mov(instr.dest, temps[idx]))
                stats.expressions_removed += 1
                if isinstance(instr, MEMORY_LOADS):
                    stats.loads_removed += 1
                kill = _kill_mask(instr, exprs)
                cur &= ~kill
                if not (kill & bit):
                    cur |= bit
                continue
            new_instrs.append(instr)
            kill = _kill_mask(instr, exprs)
            cur &= ~kill
            if idx is not None and not (kill & bit):
                cur |= bit
            if idx in temps:
                # provider: publish the value for downstream redundant uses
                assert instr.dest is not None
                new_instrs.append(Mov(temps[idx], instr.dest))
        block.instrs = new_instrs
