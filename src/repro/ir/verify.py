"""IR verifier.

Checks structural invariants that every pass must preserve.  Run after the
front end and (in tests) after each optimization to catch miscompiles at
the point they are introduced rather than at interpretation time.

Invariants checked per function:

* the entry block exists and every block ends in exactly one terminator,
  which is the last instruction;
* every branch target names an existing block;
* no instruction other than the last is a terminator;
* (optional, ``ssa=True``) every register has at most one definition.
"""

from __future__ import annotations

from ..errors import IRError
from .function import Function
from .instructions import VReg
from .module import Module


def verify_function(func: Function, ssa: bool = False) -> None:
    if not func.entry or func.entry not in func.blocks:
        raise IRError(f"{func.name}: missing entry block")
    for label, block in func.blocks.items():
        if not block.instrs:
            raise IRError(f"{func.name}/{label}: empty block")
        if not block.instrs[-1].is_terminator():
            raise IRError(f"{func.name}/{label}: block does not end in a terminator")
        for instr in block.instrs[:-1]:
            if instr.is_terminator():
                raise IRError(
                    f"{func.name}/{label}: terminator {instr} is not last"
                )
        for target in block.successors():
            if target not in func.blocks:
                raise IRError(
                    f"{func.name}/{label}: branch to unknown block {target}"
                )

    if ssa:
        _verify_single_assignment(func)


def _verify_single_assignment(func: Function) -> None:
    defined: dict[VReg, str] = {}
    for param in func.params:
        defined[param] = "<param>"
    for label, block in func.blocks.items():
        for instr in block.instrs:
            dest = instr.dest
            if dest is None:
                continue
            if dest in defined:
                raise IRError(
                    f"{func.name}: {dest} defined in both {defined[dest]} "
                    f"and {label}"
                )
            defined[dest] = label


def verify_module(module: Module, ssa: bool = False) -> None:
    for func in module.functions.values():
        verify_function(func, ssa=ssa)
