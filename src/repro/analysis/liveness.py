"""Backward liveness analysis.

Standard iterative bit-set data flow over the CFG:

    LIVEOUT(b) = union over successors s of LIVEIN(s)
    LIVEIN(b)  = UEVAR(b) | (LIVEOUT(b) - VARKILL(b))

Phi nodes get the usual treatment: a phi's operands are live out of the
corresponding predecessor, not live into the phi's own block.  The register
allocator consumes this analysis to build the interference graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import postorder
from ..ir.function import Function
from ..ir.instructions import Phi, VReg


@dataclass
class Liveness:
    live_in: dict[str, frozenset[VReg]]
    live_out: dict[str, frozenset[VReg]]


def compute_liveness(func: Function) -> Liveness:
    order = postorder(func)  # backward problems converge fastest in postorder
    labels = set(order)

    uevar: dict[str, set[VReg]] = {}
    varkill: dict[str, set[VReg]] = {}
    # registers used by phis in successor blocks, keyed by the predecessor
    # through which the value flows
    phi_uses_out: dict[str, set[VReg]] = {label: set() for label in labels}
    phi_defs: dict[str, set[VReg]] = {label: set() for label in labels}

    for label in order:
        block = func.block(label)
        upward: set[VReg] = set()
        killed: set[VReg] = set()
        for instr in block.instrs:
            if isinstance(instr, Phi):
                phi_defs[label].add(instr.dst)
                killed.add(instr.dst)  # defined at the top of the block
                for pred_label, reg in instr.incoming.items():
                    if pred_label in labels:
                        phi_uses_out[pred_label].add(reg)
                continue
            for reg in instr.uses():
                if reg not in killed:
                    upward.add(reg)
            if instr.dest is not None:
                killed.add(instr.dest)
        uevar[label] = upward
        varkill[label] = killed

    live_in: dict[str, set[VReg]] = {label: set() for label in labels}
    live_out: dict[str, set[VReg]] = {label: set() for label in labels}

    changed = True
    while changed:
        changed = False
        for label in order:
            block = func.block(label)
            out: set[VReg] = set(phi_uses_out[label])
            for succ in block.successors():
                if succ in labels:
                    out |= live_in[succ] - phi_defs[succ]
            new_in = uevar[label] | (out - varkill[label] - phi_defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    return Liveness(
        live_in={l: frozenset(s) for l, s in live_in.items()},
        live_out={l: frozenset(s) for l, s in live_out.items()},
    )


def live_across_calls(func: Function, liveness: Liveness | None = None) -> set[VReg]:
    """Registers live across at least one call site — used by spill
    heuristics (caller-saved pressure)."""
    from ..ir.instructions import Call

    if liveness is None:
        liveness = compute_liveness(func)
    result: set[VReg] = set()
    for label, block in func.blocks.items():
        live = set(liveness.live_out[label])
        for instr in reversed(block.instrs):
            if instr.dest is not None:
                live.discard(instr.dest)
            if isinstance(instr, Call):
                result |= live
            live.update(instr.uses())
    return result
