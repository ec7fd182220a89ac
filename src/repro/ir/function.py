"""Basic blocks and functions.

A :class:`Function` owns an ordered mapping from label to
:class:`BasicBlock`.  Successor edges are implied by each block's
terminator; predecessor maps are computed on demand by
:func:`repro.ir.cfg.predecessors` so passes never have to keep them in sync
while rewriting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import IRError
from .instructions import (
    Branch,
    Instr,
    Jump,
    VReg,
    branch_targets,
)
from .tags import Tag


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    Blocks under construction may temporarily lack a terminator; the
    verifier rejects such functions, and the builder seals blocks as it
    goes.
    """

    __slots__ = ("label", "instrs")

    def __init__(self, label: str, instrs: Iterable[Instr] | None = None) -> None:
        self.label = label
        self.instrs: list[Instr] = list(instrs) if instrs is not None else []

    # -- terminators and edges ---------------------------------------------
    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].is_terminator():
            return self.instrs[-1]
        return None

    def successors(self) -> tuple[str, ...]:
        """:func:`branch_targets` of the terminator, read off the last
        instruction's class: every CFG walk calls this, per block."""
        if not self.instrs:
            return ()
        last = self.instrs[-1]
        cls = last.__class__
        if cls is Jump:
            return (last.target,)
        if cls is Branch:
            if last.if_true == last.if_false:
                return (last.if_true,)
            return (last.if_true, last.if_false)
        return ()

    def is_terminated(self) -> bool:
        return self.terminator is not None

    # -- convenience -------------------------------------------------------
    def append(self, instr: Instr) -> None:
        if self.is_terminated():
            raise IRError(f"appending to terminated block {self.label}")
        self.instrs.append(instr)

    def body(self) -> list[Instr]:
        """Instructions excluding the terminator."""
        if self.is_terminated():
            return self.instrs[:-1]
        return list(self.instrs)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BasicBlock {self.label}: {len(self.instrs)} instrs>"


class Function:
    """A single procedure in tagged IL form.

    Attributes
    ----------
    name:
        The linkage name.
    params:
        Virtual registers that receive argument values on entry, in
        declaration order.
    entry:
        Label of the entry block.
    blocks:
        Ordered ``label -> BasicBlock`` mapping.  Iteration order is the
        order blocks were created; passes that need a specific order
        (reverse postorder, dominance order) compute it themselves.
    local_tags:
        Tags for this function's address-taken locals and aggregates.
    """

    def __init__(self, name: str, params: Iterable[VReg] = ()) -> None:
        self.name = name
        self.params: tuple[VReg, ...] = tuple(params)
        self.entry: str = ""
        self.blocks: dict[str, BasicBlock] = {}
        self.local_tags: list[Tag] = []
        #: byte size of each local tag's storage (defaults to one word)
        self.local_tag_sizes: dict[str, int] = {}
        self._next_vreg = max((p.id for p in self.params), default=-1) + 1
        self._next_label = 0

    # -- registers and labels ------------------------------------------------
    def new_vreg(self, hint: str = "") -> VReg:
        reg = VReg(self._next_vreg, hint)
        self._next_vreg += 1
        return reg

    def reserve_vreg_ids(self, upto: int) -> None:
        """Make sure freshly created registers have ids above ``upto``."""
        self._next_vreg = max(self._next_vreg, upto + 1)

    def new_label(self, hint: str = "B") -> str:
        while True:
            label = f"{hint}{self._next_label}"
            self._next_label += 1
            if label not in self.blocks:
                return label

    # -- blocks ----------------------------------------------------------------
    def new_block(self, hint: str = "B", label: str | None = None) -> BasicBlock:
        if label is None:
            label = self.new_label(hint)
        if label in self.blocks:
            raise IRError(f"duplicate block label {label} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if not self.entry:
            self.entry = label
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(f"no block {label} in function {self.name}") from None

    def entry_block(self) -> BasicBlock:
        return self.block(self.entry)

    def remove_block(self, label: str) -> None:
        if label == self.entry:
            raise IRError(f"cannot remove entry block {label}")
        del self.blocks[label]

    # -- traversal ----------------------------------------------------------
    def instructions(self) -> Iterator[Instr]:
        """Every instruction in the function, block by block."""
        for block in self.blocks.values():
            yield from block.instrs

    def copy(self) -> "Function":
        """A structural copy: fresh blocks, instructions and tag lists;
        registers, tags and tag sets are immutable and shared."""
        clone = Function(self.name, self.params)
        clone.entry = self.entry
        clone.blocks = {
            label: BasicBlock(label, [instr.copy() for instr in block.instrs])
            for label, block in self.blocks.items()
        }
        clone.local_tags = list(self.local_tags)
        clone.local_tag_sizes = dict(self.local_tag_sizes)
        clone._next_vreg = self._next_vreg
        clone._next_label = self._next_label
        return clone

    def max_vreg_id(self) -> int:
        highest = max((p.id for p in self.params), default=-1)
        for instr in self.instructions():
            if instr.dest is not None:
                highest = max(highest, instr.dest.id)
            for reg in instr.uses():
                highest = max(highest, reg.id)
        return highest

    # -- edge surgery ----------------------------------------------------------
    def split_edge(self, src_label: str, dst_label: str, hint: str = "E") -> BasicBlock:
        """Insert a fresh block on the CFG edge ``src -> dst``.

        The new block ends with ``jmp dst``; the source's terminator is
        retargeted.
        """
        src = self.block(src_label)
        term = src.terminator
        if term is None or dst_label not in branch_targets(term):
            raise IRError(f"no edge {src_label} -> {dst_label} in {self.name}")
        mid = self.new_block(hint)
        mid.append(Jump(dst_label))
        if isinstance(term, Jump):
            term.target = mid.label
        elif isinstance(term, Branch):
            if term.if_true == dst_label:
                term.if_true = mid.label
            if term.if_false == dst_label:
                term.if_false = mid.label
        return mid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Function {self.name}: {len(self.blocks)} blocks>"
