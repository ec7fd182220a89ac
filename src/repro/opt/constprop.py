"""Sparse conditional constant propagation (Wegman–Zadeck SCCP).

The function is converted to SSA, the standard three-level lattice
(⊤ unknown / constant / ⊥ overdefined) is propagated sparsely along SSA
edges and executable CFG edges, then:

* registers proven constant have their defining instructions rewritten to
  ``loadi``;
* conditional branches with constant conditions become jumps, and the
  never-taken edges are pruned (phi inputs included);

finally SSA is destructed and the CFG cleaned.  This is the paper's
"constant propagation" baseline pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import predecessors, remove_unreachable_blocks
from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    Branch,
    Instr,
    Jump,
    LoadI,
    Mov,
    UnOp,
    VReg,
)
from ..ir.module import Module
from .clean import clean_function
from .valuenum import _try_fold_binop, _try_fold_unop
from ..analysis.ssa import Phi, construct_ssa, destruct_ssa

_TOP = "top"
_BOTTOM = "bottom"
# constants are represented by their value (int or float)


@dataclass
class SCCPStats:
    constants_found: int = 0
    branches_folded: int = 0


def run_sccp(func: Function) -> SCCPStats:
    stats = SCCPStats()
    info = construct_ssa(func)
    try:
        lattice, executable_edges = _propagate(func, info.phis)
        _rewrite(func, lattice, executable_edges, stats)
    finally:
        _prune_phis(func, info.phis)
        destruct_ssa(func, info)
    clean_function(func)
    return stats


def run_sccp_module(module: Module) -> SCCPStats:
    total = SCCPStats()
    for func in module.functions.values():
        stats = run_sccp(func)
        total.constants_found += stats.constants_found
        total.branches_folded += stats.branches_folded
    return total


def _propagate(func: Function, phis: dict[str, list[Phi]]):
    """The lattice value of each register, by register id, and the
    executable CFG edges."""
    lattice: dict[int, object] = {}
    for param in func.params:
        lattice[param.id] = _BOTTOM

    def value_of(reg: VReg) -> object:
        return lattice.get(reg.id, _TOP)

    # SSA use index
    uses: dict[int, list[tuple[str, Instr | Phi]]] = {}
    for label, block in func.blocks.items():
        for phi in phis.get(label, ()):
            for reg in phi.incoming.values():
                uses.setdefault(reg.id, []).append((label, phi))
        for instr in block.instrs:
            for reg in instr.uses():
                uses.setdefault(reg.id, []).append((label, instr))

    executable_edges: set[tuple[str, str]] = set()
    executable_blocks: set[str] = set()
    flow_work: list[tuple[str | None, str]] = [(None, func.entry)]
    ssa_work: list[int] = []

    def raise_to(reg: VReg, value: object) -> None:
        old = lattice.get(reg.id, _TOP)
        new = _meet(old, value)
        if new != old:
            lattice[reg.id] = new
            ssa_work.append(reg.id)

    def eval_instr(label: str, instr: Instr | Phi) -> None:
        if isinstance(instr, Phi):
            result: object = _TOP
            for pred, reg in instr.incoming.items():
                if (pred, label) in executable_edges:
                    result = _meet(result, value_of(reg))
            raise_to(instr.dst, result)
            return
        if isinstance(instr, LoadI):
            raise_to(instr.dst, instr.value)
            return
        if isinstance(instr, Mov):
            raise_to(instr.dst, value_of(instr.src))
            return
        if isinstance(instr, BinOp):
            a, b = value_of(instr.lhs), value_of(instr.rhs)
            if a is _BOTTOM or b is _BOTTOM:
                raise_to(instr.dst, _BOTTOM)
            elif a is not _TOP and b is not _TOP:
                folded = _try_fold_binop(instr.opcode, a, b)  # type: ignore[arg-type]
                raise_to(instr.dst, folded if folded is not None else _BOTTOM)
            return
        if isinstance(instr, UnOp):
            a = value_of(instr.src)
            if a is _BOTTOM:
                raise_to(instr.dst, _BOTTOM)
            elif a is not _TOP:
                folded = _try_fold_unop(instr.opcode, a)  # type: ignore[arg-type]
                raise_to(instr.dst, folded if folded is not None else _BOTTOM)
            return
        if isinstance(instr, Branch):
            cond = value_of(instr.cond)
            if cond is _BOTTOM:
                _mark_edge(label, instr.if_true)
                _mark_edge(label, instr.if_false)
            elif cond is not _TOP:
                target = instr.if_true if cond != 0 else instr.if_false
                _mark_edge(label, target)
            return
        if isinstance(instr, Jump):
            _mark_edge(label, instr.target)
            return
        dest = instr.dest
        if dest is not None:
            raise_to(dest, _BOTTOM)  # loads, calls, addresses: overdefined

    def _mark_edge(src: str, dst: str) -> None:
        if (src, dst) not in executable_edges:
            executable_edges.add((src, dst))
            flow_work.append((src, dst))

    while flow_work or ssa_work:
        if flow_work:
            _, dst = flow_work.pop()
            block = func.block(dst)
            first_visit = dst not in executable_blocks
            executable_blocks.add(dst)
            # phis must be re-evaluated on every new incoming edge
            for phi in phis.get(dst, ()):
                eval_instr(dst, phi)
            if first_visit:
                for instr in block.instrs:
                    eval_instr(dst, instr)
            continue
        reg = ssa_work.pop()
        for label, instr in uses.get(reg, []):
            if label in executable_blocks:
                eval_instr(label, instr)

    return lattice, executable_edges


def _meet(a: object, b: object) -> object:
    if a is _TOP:
        return b
    if b is _TOP:
        return a
    if a is _BOTTOM or b is _BOTTOM:
        return _BOTTOM
    if a == b and type(a) is type(b):
        return a
    return _BOTTOM


def _rewrite(func: Function, lattice, executable_edges, stats: SCCPStats) -> None:
    for label, block in func.blocks.items():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            dest = instr.dest
            value = lattice.get(dest.id, _TOP) if dest is not None else _TOP
            is_const = dest is not None and value is not _TOP and value is not _BOTTOM
            if is_const and isinstance(instr, (BinOp, UnOp, Mov)):
                stats.constants_found += 1
                new_instrs.append(LoadI(dest, value))
                continue
            if isinstance(instr, Branch):
                cond = lattice.get(instr.cond.id, _TOP)
                if cond is not _TOP and cond is not _BOTTOM:
                    target = instr.if_true if cond != 0 else instr.if_false
                    stats.branches_folded += 1
                    new_instrs.append(Jump(target))
                    continue
            new_instrs.append(instr)
        block.instrs = new_instrs


def _prune_phis(func: Function, phis: dict[str, list[Phi]]) -> None:
    """Drop unreachable blocks, then phi inputs from labels that are no
    longer predecessors."""
    remove_unreachable_blocks(func)
    preds = predecessors(func)
    for label, join_phis in phis.items():
        live = set(preds.get(label, ()))
        for phi in join_phis:
            for gone in [p for p in phi.incoming if p not in live]:
                del phi.incoming[gone]
