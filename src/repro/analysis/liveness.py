"""Backward liveness analysis.

Standard iterative bit-set data flow over the CFG:

    LIVEOUT(b) = union over successors s of LIVEIN(s)
    LIVEIN(b)  = UEVAR(b) | (LIVEOUT(b) - VARKILL(b))

The register allocator consumes this analysis to build the interference
graph.

Sets hold register ids: the allocator rebuilds liveness every round, and
ints hash far faster than ``VReg`` dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import postorder
from ..ir.function import Function


@dataclass
class Liveness:
    live_in: dict[str, frozenset[int]]
    live_out: dict[str, frozenset[int]]


def compute_liveness(func: Function) -> Liveness:
    order = postorder(func)  # backward problems converge fastest in postorder
    labels = set(order)

    uevar: dict[str, set[int]] = {}
    varkill: dict[str, set[int]] = {}
    succs: dict[str, list[str]] = {}

    for label in order:
        block = func.block(label)
        succs[label] = [s for s in block.successors() if s in labels]
        upward: set[int] = set()
        killed: set[int] = set()
        for instr in block.instrs:
            for reg in instr.uses():
                if reg.id not in killed:
                    upward.add(reg.id)
            if instr.dest is not None:
                killed.add(instr.dest.id)
        uevar[label] = upward
        varkill[label] = killed

    # LIVEIN is recomputed only when LIVEOUT changes: start it at its
    # value for an empty LIVEOUT
    live_in: dict[str, set[int]] = {label: uevar[label] for label in labels}
    live_out: dict[str, set[int]] = {label: set() for label in labels}

    changed = True
    while changed:
        changed = False
        for label in order:
            out: set[int] = set()
            for succ in succs[label]:
                out |= live_in[succ]
            if out != live_out[label]:
                live_out[label] = out
                live_in[label] = uevar[label] | (out - varkill[label])
                changed = True

    return Liveness(
        live_in={l: frozenset(s) for l, s in live_in.items()},
        live_out={l: frozenset(s) for l, s in live_out.items()},
    )
