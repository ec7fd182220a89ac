"""Dynamic operation counters.

These are the paper's three instrumentation metrics (Figures 5, 6, 7):
total operations executed, stores executed, and loads executed.  Loads are
``cload``/``sload``/``load``; an immediate ``loadi`` is not a memory
reference and is not counted as a load (it still counts as an operation).

Both execution engines mutate one ``Counters`` instance: the reference
(``simple``) engine increments per executed instruction, while the
compiled tier adds each path's static mix as a batch at the path's leaf.
A path runs from a dispatch arm's head, or from just after a call,
through the blocks inlined after it to the next arm jump, return or call
(see :mod:`repro.interp.compiled`); the batches go through local visit
counters, one per distinct mix, flushed at returns and exits.  The two
disciplines produce bit-identical totals because a path, once entered,
always runs to its leaf unless an exception leaves it, and the
exception's handler adds the counts of the instructions that ran.  The
dataclass is slotted so the per-op increments of the reference engine
stay as cheap as possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import (
    Branch,
    Call,
    CLoad,
    MemLoad,
    MemStore,
    Mov,
    Nop,
    ScalarLoad,
    ScalarStore,
)

#: the counter fields each instruction class bumps besides ``total_ops``
#: (``nop`` bumps nothing, not even that).  The compiled tier's static
#: mixes, the loop profile and the pipeline's per-pass op breakdown all
#: read this one table; the reference loop in :mod:`repro.interp.machine`
#: spells the same increments out inline, and the engine-equivalence
#: tests hold the two to each other.
COUNTED_AS = {
    Mov: ("copies",),
    ScalarLoad: ("loads", "scalar_loads"),
    CLoad: ("loads", "scalar_loads"),
    ScalarStore: ("stores", "scalar_stores"),
    MemLoad: ("loads", "general_loads"),
    MemStore: ("stores", "general_stores"),
    Branch: ("branches",),
    Call: ("calls",),
}


def counted_fields(cls) -> tuple[str, ...]:
    """The counter fields one executed instruction of class ``cls`` bumps."""
    if cls is Nop:
        return ()
    return ("total_ops",) + COUNTED_AS.get(cls, ())


def static_mix(instrs) -> dict[str, int]:
    """The counter increments the reference loop makes running ``instrs``
    once, straight through."""
    mix: dict[str, int] = {}
    for instr in instrs:
        for fld in counted_fields(instr.__class__):
            mix[fld] = mix.get(fld, 0) + 1
    return mix


@dataclass(slots=True)
class Counters:
    total_ops: int = 0
    loads: int = 0
    stores: int = 0
    #: finer breakdown, useful for the ablation benches
    scalar_loads: int = 0
    scalar_stores: int = 0
    general_loads: int = 0
    general_stores: int = 0
    copies: int = 0
    calls: int = 0
    branches: int = 0

    def memory_ops(self) -> int:
        return self.loads + self.stores

    def as_dict(self) -> dict[str, int]:
        return {
            "total_ops": self.total_ops,
            "loads": self.loads,
            "stores": self.stores,
            "scalar_loads": self.scalar_loads,
            "scalar_stores": self.scalar_stores,
            "general_loads": self.general_loads,
            "general_stores": self.general_stores,
            "copies": self.copies,
            "calls": self.calls,
            "branches": self.branches,
        }

    def __str__(self) -> str:
        return (
            f"ops={self.total_ops} loads={self.loads} stores={self.stores}"
        )
