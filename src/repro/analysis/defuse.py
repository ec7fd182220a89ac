"""Def-use summaries over non-SSA IL.

Light-weight indexes used by several passes: where each virtual register is
defined and used, and which registers are defined exactly once (near-SSA —
the front end emits most temporaries that way, which is what lets the
points-to analysis run without full SSA construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instructions import VReg


@dataclass
class DefUse:
    """Definition and use sites for every register of one function.

    A *site* is ``(block label, instruction index)``.
    """

    defs: dict[VReg, list[tuple[str, int]]] = field(default_factory=dict)
    uses: dict[VReg, list[tuple[str, int]]] = field(default_factory=dict)

    def single_def(self, reg: VReg) -> tuple[str, int] | None:
        sites = self.defs.get(reg, [])
        return sites[0] if len(sites) == 1 else None

    def is_dead(self, reg: VReg) -> bool:
        return not self.uses.get(reg)

    def use_count(self, reg: VReg) -> int:
        return len(self.uses.get(reg, []))


def compute_def_use(func: Function) -> DefUse:
    info = DefUse()
    for param in func.params:
        info.defs.setdefault(param, []).append(("<param>", -1))
    for label, block in func.blocks.items():
        for idx, instr in enumerate(block.instrs):
            dest = instr.dest
            if dest is not None:
                info.defs.setdefault(dest, []).append((label, idx))
            for reg in instr.uses():
                info.uses.setdefault(reg, []).append((label, idx))
    return info
