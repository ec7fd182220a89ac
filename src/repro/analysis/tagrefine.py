"""Tag-set refinement: strengthening memory opcodes after analysis.

The IL's opcode hierarchy (Table 1) encodes "increasingly more specific
knowledge".  Once interprocedural analysis has shrunk a general
``load``/``store``'s tag set to a *single scalar location*, the operation
provably accesses exactly that named scalar, so it can be strengthened to
an ``sload``/``sstore``.  This conversion is what lets points-to analysis
unlock promotions MOD/REF cannot (the paper's mlink example: once analysis
proves stores through ``X2`` cannot modify ``T1``, references to ``T1``
become explicit and ``T1`` is promotable).

Strengthening is only sound when the singleton tag names one run-time
cell:

* ``GLOBAL`` scalar tags always do;
* ``LOCAL`` scalar tags do only in the frame of their owning function,
  and only when that function is not recursive (a recursive function's
  local tag stands for many activations at once — the paper makes the
  same approximation and forgoes strong updates there).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diag.ledger import Decision
from ..ir.instructions import MemLoad, MemStore, ScalarLoad, ScalarStore
from ..ir.module import Module
from ..ir.tags import TagKind
from .callgraph import SCCInfo


@dataclass
class RefineStats:
    loads_strengthened: int = 0
    stores_strengthened: int = 0
    #: one ``strengthened`` row per rewritten operation
    decisions: list[Decision] = field(default_factory=list)


def refine_memory_ops(module: Module, sccs: SCCInfo) -> RefineStats:
    """Strengthen singleton-scalar general memory operations in place."""
    stats = RefineStats()
    for func in module.functions.values():
        recursive = sccs.is_recursive(func.name) if func.name in sccs.component_of else False
        for block in func.blocks.values():
            for idx, instr in enumerate(block.instrs):
                if isinstance(instr, (MemLoad, MemStore)):
                    tags = instr.tags
                    if not tags.is_singleton():
                        continue
                    tag = tags.the_tag()
                    if not tag.is_scalar:
                        continue
                    if tag.kind is TagKind.LOCAL:
                        if tag.owner != func.name or recursive:
                            continue
                    elif tag.kind is not TagKind.GLOBAL:
                        continue
                    if isinstance(instr, MemLoad):
                        block.instrs[idx] = ScalarLoad(instr.dst, tag)
                        stats.loads_strengthened += 1
                        op = "load"
                    else:
                        block.instrs[idx] = ScalarStore(instr.src, tag)
                        stats.stores_strengthened += 1
                        op = "store"
                    stats.decisions.append(
                        Decision(
                            "tagrefine", func.name, "strengthened",
                            tag=tag.name, detail={"op": op},
                        )
                    )
    return stats
