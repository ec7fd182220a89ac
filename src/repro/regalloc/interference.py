"""Interference graph construction.

Built from backward liveness the classic way: at each instruction, the
defined register interferes with everything live after it — except, for a
copy ``d = mov s``, with ``s`` itself (the exclusion that makes copies
coalescable, exactly the property the paper's promotion-generated copies
rely on).

Nodes are register ids, and liveness hands over id sets, so the build
never hashes a ``VReg``.  The allocator rebuilds the graph after each
coalesce round that merged and each spill round; it colors the graph of
the last, merge-free coalesce round, built from the unchanged function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import Liveness, compute_liveness
from ..ir.function import Function
from ..ir.instructions import Mov


@dataclass
class InterferenceGraph:
    """Adjacency sets over register ids."""

    adjacency: dict[int, set[int]] = field(default_factory=dict)
    #: number of defs+uses per register, weighted by loop depth
    occurrences: dict[int, float] = field(default_factory=dict)

    def ensure(self, reg_id: int) -> None:
        self.adjacency.setdefault(reg_id, set())

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self.ensure(a)
        self.ensure(b)
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    def interferes(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    def merge(self, keep: int, gone: int) -> None:
        """Fold node ``gone`` into ``keep`` (coalescing).  The result keeps a
        superset of the edges a rebuild gives, so it never stands in for one."""
        self.ensure(keep)
        for neighbor in self.adjacency.pop(gone, set()):
            self.adjacency[neighbor].discard(gone)
            if neighbor != keep:
                self.adjacency[neighbor].add(keep)
                self.adjacency[keep].add(neighbor)
        self.occurrences[keep] = self.occurrences.get(keep, 0) + self.occurrences.pop(
            gone, 0
        )


def build_interference(
    func: Function,
    liveness: Liveness | None = None,
    loop_depth: dict[str, int] | None = None,
) -> InterferenceGraph:
    if liveness is None:
        liveness = compute_liveness(func)
    graph = InterferenceGraph()

    for param in func.params:
        graph.ensure(param.id)

    adjacency, occurrences = graph.adjacency, graph.occurrences
    for label, block in func.blocks.items():
        weight = 10.0 ** min(loop_depth.get(label, 0) if loop_depth else 0, 6)
        live: set[int] = set(liveness.live_out.get(label, frozenset()))
        # every register in ``live`` keeps a row, so edges go in directly
        for r in live:
            if r not in adjacency:
                adjacency[r] = set()
        for instr in reversed(block.instrs):
            dest = instr.dest
            if dest is not None:
                d = dest.id
                occurrences[d] = occurrences.get(d, 0) + weight
                live.discard(d)
                row = adjacency.get(d)
                if row is None:
                    row = adjacency[d] = set()
                # a copy's source is live across it but does not interfere
                skip = instr.src.id if instr.__class__ is Mov and instr.src.id in live else None
                if skip is not None:
                    live.remove(skip)
                row |= live
                for other in live:
                    adjacency[other].add(d)
                if skip is not None:
                    live.add(skip)
            for reg in instr.uses():
                r = reg.id
                if r not in adjacency:
                    adjacency[r] = set()
                occurrences[r] = occurrences.get(r, 0) + weight
                live.add(r)
    # parameters are defined on entry and interfere with whatever is live
    # into the entry block
    entry_live = liveness.live_in.get(func.entry, frozenset())
    for i, param in enumerate(func.params):
        for other in entry_live:
            if other != param.id:
                graph.add_edge(param.id, other)
        for other_param in func.params[i + 1:]:
            graph.add_edge(param.id, other_param.id)
    return graph
