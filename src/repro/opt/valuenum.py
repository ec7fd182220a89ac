"""Local value numbering (one of the paper's baseline optimizations).

Within each basic block the pass:

* folds constant expressions;
* propagates copies (uses are rewritten to the oldest register still
  holding the value);
* removes redundant pure computations (the recomputation becomes a copy,
  which coalescing later erases);
* removes redundant *loads* using the memory tags: an ``sload [t]`` is
  redundant if the value of ``t`` is already known in a register — from a
  previous load of ``t`` or from a previous store to ``t`` (store-to-load
  forwarding) — and nothing that may write ``t`` intervened (an aliasing
  store or a call whose MOD set contains ``t``);
* removes redundant general loads at the same address, invalidated
  coarsely by any potentially-aliasing write.

Registers are versioned internally so the non-SSA IL gets full
SSA-quality numbering inside the block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diag.ledger import Decision
from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    Call,
    CLoad,
    Instr,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    Mov,
    ScalarLoad,
    ScalarStore,
    UnOp,
    VReg,
    const_key,
)
from ..ir.module import Module
from ..ir.opcodes import COMMUTATIVE_OPS, Opcode
from ..ir.tags import Tag
from ..interp.machine import _binop, _unop  # exact C semantics for folding
from ..errors import InterpError, InterpTrap


@dataclass
class VNStats:
    constants_folded: int = 0
    expressions_reused: int = 0
    loads_removed: int = 0
    copies_propagated: int = 0


class _BlockNumbering:
    """Value-numbering state for one block."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.reg_version: dict[int, int] = {}
        self.reg_vn: dict[tuple[int, int], int] = {}
        self.expr_vn: dict[tuple, int] = {}
        self.vn_const: dict[int, int | float] = {}
        self.vn_home: dict[int, tuple[VReg, int]] = {}
        self.tag_version: dict[Tag, int] = {}
        self.mem_epoch = 0
        self._next_vn = 0

    # -- registers -----------------------------------------------------------
    def use_vn(self, reg: VReg) -> int:
        version = self.reg_version.get(reg.id, 0)
        key = (reg.id, version)
        vn = self.reg_vn.get(key)
        if vn is None:
            vn = self.new_vn()
            self.reg_vn[key] = vn
            self.vn_home.setdefault(vn, (reg, version))
        return vn

    def define(self, reg: VReg, vn: int) -> None:
        version = self.reg_version.get(reg.id, 0) + 1
        self.reg_version[reg.id] = version
        self.reg_vn[(reg.id, version)] = vn
        if not self.home_valid(vn):
            self.vn_home[vn] = (reg, version)

    def new_vn(self) -> int:
        self._next_vn += 1
        return self._next_vn

    def home_valid(self, vn: int) -> bool:
        return self.home_reg(vn) is not None

    def home_reg(self, vn: int) -> VReg | None:
        """The register holding ``vn``, unless it was redefined since."""
        home = self.vn_home.get(vn)
        if home is not None and self.reg_version.get(home[0].id, 0) == home[1]:
            return home[0]
        return None

    # -- memory -----------------------------------------------------------
    def tag_ver(self, tag: Tag) -> int:
        return self.tag_version.get(tag, 0)

    def kill_tag(self, tag: Tag) -> None:
        self.tag_version[tag] = self.tag_ver(tag) + 1

    def kill_tags(self, tags) -> None:
        if tags.universal:
            # forget everything we know about memory
            for tag in list(self.tag_version):
                self.kill_tag(tag)
            self.mem_epoch += 1
            self.expr_vn = {
                k: v for k, v in self.expr_vn.items() if k[0] not in ("sload", "load")
            }
            return
        for tag in tags.tags:
            self.kill_tag(tag)
        if tags.tags:
            self.mem_epoch += 1


def run_value_numbering(func: Function) -> VNStats:
    stats = VNStats()
    for block in func.blocks.values():
        state = _BlockNumbering(func)
        block.instrs = [_number_instr(instr, state, stats) for instr in block.instrs]
    return stats


def vn_decision(func_name: str, stats: VNStats) -> Decision | None:
    """One function's value-numbering outcome as a decision row;
    ``None`` when nothing was folded, reused or removed."""
    if not (stats.constants_folded or stats.expressions_reused or stats.loads_removed):
        return None
    return Decision(
        "valuenum", func_name, "applied",
        detail={
            "constants_folded": stats.constants_folded,
            "expressions_reused": stats.expressions_reused,
            "loads_removed": stats.loads_removed,
            "copies_propagated": stats.copies_propagated,
        },
    )


def run_value_numbering_module(module: Module) -> VNStats:
    total = VNStats()
    for func in module.functions.values():
        stats = run_value_numbering(func)
        total.constants_folded += stats.constants_folded
        total.expressions_reused += stats.expressions_reused
        total.loads_removed += stats.loads_removed
        total.copies_propagated += stats.copies_propagated
    return total


def _propagate_copies(instr: Instr, state: _BlockNumbering, stats: VNStats) -> dict[int, int]:
    """Rewrite each use to the canonical register holding its value and
    return the value number of each (rewritten) operand, by register id."""
    vns: dict[int, int] = {}
    mapping: dict[VReg, VReg] = {}
    for reg in set(instr.uses()):
        vn = state.use_vn(reg)
        home = state.home_reg(vn)
        if home is not None and home.id != reg.id:
            mapping[reg] = home
            reg = home
        vns[reg.id] = vn
    if mapping:
        instr.replace_uses(mapping)
        stats.copies_propagated += len(mapping)
    return vns


def _number_instr(instr: Instr, state: _BlockNumbering, stats: VNStats) -> Instr:
    vns = _propagate_copies(instr, state, stats)

    if isinstance(instr, LoadI):
        key = ("const", const_key(instr.value))
        vn = state.expr_vn.get(key)
        if vn is None:
            vn = state.new_vn()
            state.expr_vn[key] = vn
            state.vn_const[vn] = instr.value
        state.define(instr.dst, vn)
        return instr

    if isinstance(instr, Mov):
        state.define(instr.dst, vns[instr.src.id])
        return instr

    if isinstance(instr, LoadAddr):
        return _reuse(instr, ("la", instr.tag, instr.offset), state, stats)

    if isinstance(instr, BinOp):
        a, b = vns[instr.lhs.id], vns[instr.rhs.id]
        if a in state.vn_const and b in state.vn_const:
            folded = _try_fold_binop(instr.opcode, state.vn_const[a], state.vn_const[b])
            if folded is not None:
                stats.constants_folded += 1
                return _number_instr(LoadI(instr.dst, folded), state, stats)
        if instr.opcode in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return _reuse(instr, ("bin", instr.opcode, a, b), state, stats)

    if isinstance(instr, UnOp):
        a = vns[instr.src.id]
        if a in state.vn_const:
            folded = _try_fold_unop(instr.opcode, state.vn_const[a])
            if folded is not None:
                stats.constants_folded += 1
                return _number_instr(LoadI(instr.dst, folded), state, stats)
        return _reuse(instr, ("un", instr.opcode, a), state, stats)

    if isinstance(instr, (ScalarLoad, CLoad)):
        return _reuse(instr, ("sload", instr.tag, state.tag_ver(instr.tag)), state, stats)

    if isinstance(instr, MemLoad):
        return _reuse(instr, ("load", vns[instr.addr.id], state.mem_epoch), state, stats)

    state.kill_tags(instr.writes())
    if isinstance(instr, ScalarStore):
        # store-to-load forwarding: the stored value *is* the tag's value
        state.expr_vn[("sload", instr.tag, state.tag_ver(instr.tag))] = vns[instr.src.id]
    elif isinstance(instr, MemStore):
        # forward the stored value to a same-address load
        state.expr_vn[("load", vns[instr.addr.id], state.mem_epoch)] = vns[instr.src.id]
    elif isinstance(instr, Call) and instr.dst is not None:
        state.define(instr.dst, state.new_vn())
    return instr


def _reuse(instr: Instr, key: tuple, state: _BlockNumbering, stats: VNStats) -> Instr:
    """Number ``instr``'s result by ``key``: a copy from the register
    still holding that value when there is one (a removed load or a
    reused expression), else ``instr`` itself."""
    vn = state.expr_vn.get(key)
    home = None
    if vn is None:
        vn = state.new_vn()
        state.expr_vn[key] = vn
    else:
        home = state.home_reg(vn)
    state.define(instr.dst, vn)
    if home is None:
        return instr
    if key[0] in ("sload", "load"):
        stats.loads_removed += 1
    else:
        stats.expressions_reused += 1
    return Mov(instr.dst, home)


def _try_fold_binop(op: Opcode, a: int | float, b: int | float) -> int | float | None:
    try:
        return _binop(op, a, b)
    except (InterpTrap, InterpError, OverflowError, ZeroDivisionError):
        return None


def _try_fold_unop(op: Opcode, a: int | float) -> int | float | None:
    try:
        return _unop(op, a)
    except (InterpTrap, InterpError, OverflowError):
        return None
