"""Natural-loop discovery and loop-shape normalization.

The paper's compiler "automatically inserts landing pads and exits as part
of constructing the control-flow graph; empty blocks are automatically
removed after optimization" (section 3.2).  We reproduce that contract:

* :func:`find_loops` discovers natural loops from back edges (an edge
  ``t -> h`` where ``h`` dominates ``t``) and builds the loop-nest forest;
* :func:`normalize_loops` rewrites the CFG so every loop has a *landing
  pad* (a unique predecessor block outside the loop whose only successor is
  the header) and *dedicated exit blocks* (every edge leaving the loop goes
  to a block all of whose predecessors are inside the loop).

Register promotion inserts its promote-loads in landing pads and its
demote-stores in dedicated exits; the ``clean`` pass later erases any that
end up empty.  The pipeline normalizes each function once, and promotion,
LICM and pointer promotion share the resulting forest: they only insert
non-terminator instructions into existing blocks, so its landing pads,
exit edges, dominators and predecessor map stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..ir.cfg import predecessors
from ..ir.function import Function
from ..ir.instructions import Jump, retarget
from .dominators import DominatorInfo, compute_dominators


@dataclass
class Loop:
    """One natural loop.

    ``blocks`` contains every label in the loop body, including the header.
    ``parent`` is the innermost enclosing loop, if any.
    """

    header: str
    blocks: set[str]
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)
    depth: int = 1
    #: latch blocks: sources of back edges into the header
    latches: list[str] = field(default_factory=list)
    #: the header's one reachable predecessor outside the loop, or None
    #: when it has none or several (unreachable predecessors never
    #: execute and cleaning removes them)
    pad: str | None = None
    #: edges ``(src, dst)`` with ``src`` inside and ``dst`` outside, over
    #: ``sorted(blocks)``: demotion stores are inserted in this order
    exit_edges: list[tuple[str, str]] = field(default_factory=list)

    def contains(self, label: str) -> bool:
        return label in self.blocks

    def is_outermost(self) -> bool:
        return self.parent is None

    @property
    def preheader(self) -> str:
        """The landing pad; :func:`normalize_loops` guarantees one."""
        if self.pad is None:
            raise AnalysisError(
                f"loop {self.header} has no single outside predecessor; "
                "run normalize_loops first"
            )
        return self.pad

    @property
    def exit_blocks(self) -> list[str]:
        """Distinct targets of exit edges, in a stable order."""
        return list(dict.fromkeys(dst for _, dst in self.exit_edges))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Loop {self.header} depth={self.depth} |blocks|={len(self.blocks)}>"


@dataclass
class LoopForest:
    """All loops of one function plus lookup structures, and the CFG
    facts they were found with.  The facts stay valid while passes only
    insert non-terminator instructions into existing blocks."""

    loops: list[Loop]
    #: innermost loop containing each label (absent if not in any loop)
    innermost: dict[str, Loop]
    dom: DominatorInfo
    #: ``label -> [predecessor labels]``, unreachable ones included
    preds: dict[str, list[str]]

    def top_level(self) -> list[Loop]:
        return [l for l in self.loops if l.parent is None]

    def loop_with_header(self, header: str) -> Loop:
        for loop in self.loops:
            if loop.header == header:
                return loop
        raise AnalysisError(f"no loop with header {header}")

    def loops_outermost_first(self) -> list[Loop]:
        return sorted(self.loops, key=lambda l: l.depth)

    def loops_innermost_first(self) -> list[Loop]:
        return sorted(self.loops, key=lambda l: -l.depth)

    def depth_of(self, label: str) -> int:
        loop = self.innermost.get(label)
        return loop.depth if loop is not None else 0


def find_loops(func: Function, dom: DominatorInfo | None = None) -> LoopForest:
    """Discover natural loops and build the nest forest.

    Loops sharing a header are merged into one loop with several latches,
    matching the usual natural-loop convention.
    """
    if dom is None:
        dom = compute_dominators(func)
    preds = predecessors(func)

    # back edges: t -> h with h dominating t (both reachable)
    back_edges: list[tuple[str, str]] = []
    for label in dom.idom:
        for succ in func.block(label).successors():
            if succ in dom.idom and dom.dominates(succ, label):
                back_edges.append((label, succ))

    by_header: dict[str, Loop] = {}
    for latch, header in back_edges:
        loop = by_header.get(header)
        if loop is None:
            loop = Loop(header=header, blocks={header})
            by_header[header] = loop
        loop.latches.append(latch)
        # walk backwards from the latch collecting the body
        stack = [latch]
        while stack:
            node = stack.pop()
            if node in loop.blocks:
                continue
            loop.blocks.add(node)
            stack.extend(p for p in preds[node] if p in dom.idom)

    loops = sorted(by_header.values(), key=lambda l: (len(l.blocks), l.header))

    # nesting: the parent is the smallest strictly-larger loop containing it
    for idx, inner in enumerate(loops):
        for outer in loops[idx + 1:]:
            if inner.header in outer.blocks and len(outer.blocks) > len(inner.blocks):
                inner.parent = outer
                outer.children.append(inner)
                break

    for loop in loops:
        depth = 1
        cursor = loop.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        loop.depth = depth
        outside = _outside_preds(loop, dom, preds)
        loop.pad = outside[0] if len(outside) == 1 else None
        loop.exit_edges = [
            (label, succ)
            for label in sorted(loop.blocks)
            for succ in func.block(label).successors()
            if succ not in loop.blocks
        ]

    innermost: dict[str, Loop] = {}
    for loop in sorted(loops, key=lambda l: l.depth):
        for label in loop.blocks:
            innermost[label] = loop  # deeper loops overwrite shallower ones

    return LoopForest(loops=loops, innermost=innermost, dom=dom, preds=preds)


def _outside_preds(
    loop: Loop, dom: DominatorInfo, preds: dict[str, list[str]]
) -> list[str]:
    """The header's reachable predecessors outside the loop."""
    return [
        p for p in preds[loop.header] if p not in loop.blocks and p in dom.idom
    ]


def normalize_loops(func: Function) -> LoopForest:
    """Give every loop a landing pad and dedicated exit blocks.

    Runs to a fixpoint because inserting a block can change other loops'
    bodies.  Returns the final :class:`LoopForest` (computed on the
    normalized CFG).
    """
    # each round performs at least one edit and each edit adds one
    # block; the number of edits is bounded by entries + exit edges
    max_rounds = 8 * len(func.blocks) + 64
    for _ in range(max_rounds):
        forest = find_loops(func)
        if not _normalize_once(func, forest):
            return forest
    raise AnalysisError(f"loop normalization did not converge in {func.name}")


def _normalize_once(func: Function, forest: LoopForest) -> bool:
    """One normalization round; returns True if the CFG changed."""
    for loop in forest.loops:
        # the landing pad must fall through solely into the header so
        # promote-loads inserted there execute iff the loop is entered
        if loop.pad is None or func.block(loop.pad).successors() != (loop.header,):
            _insert_landing_pad(
                func, loop, _outside_preds(loop, forest.dom, forest.preds)
            )
            return True
        for src, dst in loop.exit_edges:
            if any(p not in loop.blocks for p in forest.preds[dst]):
                func.split_edge(src, dst, hint="X")
                return True
    return False


def _insert_landing_pad(func: Function, loop: Loop, outside_preds: list[str]) -> None:
    """Create a block P with ``P -> header`` and retarget all entry edges.

    When the loop header is the function entry (so the loop has no outside
    predecessor at all), the landing pad becomes the new entry block.
    """
    pad = func.new_block("P")
    pad.append(Jump(loop.header))
    header_block = func.block(loop.header)
    if header_block.phis():
        raise AnalysisError(
            "normalize_loops does not support SSA phis on loop headers; "
            "normalize before SSA construction"
        )
    for pred_label in outside_preds:
        term = func.block(pred_label).terminator
        if term is None:
            raise AnalysisError(f"unterminated block {pred_label}")
        # only retarget the edges that enter the loop header
        retarget(term, loop.header, pad.label)
    if loop.header == func.entry:
        func.entry = pad.label
