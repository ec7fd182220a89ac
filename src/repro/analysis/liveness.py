"""Backward liveness analysis.

Standard iterative bit-set data flow over the CFG:

    LIVEOUT(b) = union over successors s of LIVEIN(s)
    LIVEIN(b)  = UEVAR(b) | (LIVEOUT(b) - VARKILL(b))

Phi nodes get the usual treatment: a phi's operands are live out of the
corresponding predecessor, not live into the phi's own block.  The register
allocator consumes this analysis to build the interference graph.

Sets hold register ids: the allocator rebuilds liveness every round, and
ints hash far faster than ``VReg`` dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import postorder
from ..ir.function import Function
from ..ir.instructions import Phi


@dataclass
class Liveness:
    live_in: dict[str, frozenset[int]]
    live_out: dict[str, frozenset[int]]


def compute_liveness(func: Function) -> Liveness:
    order = postorder(func)  # backward problems converge fastest in postorder
    labels = set(order)

    uevar: dict[str, set[int]] = {}
    varkill: dict[str, set[int]] = {}
    # registers used by phis in successor blocks, keyed by the predecessor
    # through which the value flows
    phi_uses_out: dict[str, set[int]] = {label: set() for label in labels}
    phi_defs: dict[str, set[int]] = {label: set() for label in labels}
    succs: dict[str, list[str]] = {}

    for label in order:
        block = func.block(label)
        succs[label] = [s for s in block.successors() if s in labels]
        upward: set[int] = set()
        killed: set[int] = set()
        for instr in block.instrs:
            if isinstance(instr, Phi):
                phi_defs[label].add(instr.dst.id)
                killed.add(instr.dst.id)  # defined at the top of the block
                for pred_label, reg in instr.incoming.items():
                    if pred_label in labels:
                        phi_uses_out[pred_label].add(reg.id)
                continue
            for reg in instr.uses():
                if reg.id not in killed:
                    upward.add(reg.id)
            if instr.dest is not None:
                killed.add(instr.dest.id)
        uevar[label] = upward
        varkill[label] = killed

    # LIVEIN is recomputed only when LIVEOUT changes: start it at its
    # value for an empty LIVEOUT (phi defs are in VARKILL)
    live_in: dict[str, set[int]] = {label: uevar[label] for label in labels}
    live_out: dict[str, set[int]] = {label: set() for label in labels}

    changed = True
    while changed:
        changed = False
        for label in order:
            out: set[int] = set(phi_uses_out[label])
            for succ in succs[label]:
                out |= live_in[succ] - phi_defs[succ]
            if out != live_out[label]:
                live_out[label] = out
                live_in[label] = uevar[label] | (out - varkill[label])
                changed = True

    return Liveness(
        live_in={l: frozenset(s) for l, s in live_in.items()},
        live_out={l: frozenset(s) for l, s in live_out.items()},
    )
