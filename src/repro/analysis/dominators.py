"""Dominator analysis.

The paper finds loop structure "using an algorithm due to Lengauer and
Tarjan" — we implement exactly that: the Lengauer–Tarjan algorithm with
simple path compression (the O(E log B) variant), plus the derived
artifacts every client needs: the dominator tree, dominance queries, and
dominance frontiers (used by SSA construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.cfg import predecessors
from ..ir.function import Function


@dataclass
class DominatorInfo:
    """Immediate dominators and the dominator tree for one function.

    ``idom[label]`` is the immediate dominator of ``label``; the entry block
    maps to itself.  Unreachable blocks do not appear.
    """

    entry: str
    idom: dict[str, str]
    children: dict[str, list[str]] = field(default_factory=dict)
    #: depth of each node in the dominator tree (entry = 0)
    depth: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.children:
            self.children = {label: [] for label in self.idom}
            for label, parent in self.idom.items():
                if label != self.entry:
                    self.children[parent].append(label)
        if not self.depth:
            self.depth = {self.entry: 0}
            stack = [self.entry]
            while stack:
                node = stack.pop()
                for child in self.children[node]:
                    self.depth[child] = self.depth[node] + 1
                    stack.append(child)

    def dominates(self, a: str, b: str) -> bool:
        """Does ``a`` dominate ``b``?  (Reflexive: a dominates itself.)"""
        while self.depth.get(b, -1) > self.depth.get(a, -1):
            b = self.idom[b]
        return a == b



def compute_dominators(func: Function) -> DominatorInfo:
    """Lengauer–Tarjan with path compression.

    Follows the classic presentation: number nodes by DFS, compute
    semidominators in reverse DFS order using a link-eval forest, then
    resolve immediate dominators in a final forward pass.
    """
    entry = func.entry
    preds = predecessors(func)

    # --- step 1: DFS numbering ------------------------------------------------
    parent: dict[str, str] = {}
    semi: dict[str, int] = {}
    vertex: list[str] = []  # vertex[i] = node with dfs number i

    stack: list[tuple[str, str | None]] = [(entry, None)]
    while stack:
        node, par = stack.pop()
        if node in semi:
            continue
        semi[node] = len(vertex)
        vertex.append(node)
        if par is not None:
            parent[node] = par
        for succ in reversed(func.block(node).successors()):
            if succ not in semi:
                stack.append((succ, node))

    # --- link-eval forest with path compression -----------------------------
    ancestor: dict[str, str | None] = {v: None for v in vertex}
    label: dict[str, str] = {v: v for v in vertex}

    def compress(v: str) -> None:
        # Iterative path compression: find the path to the forest root,
        # then fold labels root-to-leaf.
        path: list[str] = []
        while ancestor[v] is not None and ancestor[ancestor[v]] is not None:  # type: ignore[index]
            path.append(v)
            v = ancestor[v]  # type: ignore[assignment]
        for node in reversed(path):
            anc = ancestor[node]
            assert anc is not None
            if semi[label[anc]] < semi[label[node]]:
                label[node] = label[anc]
            ancestor[node] = ancestor[anc]

    def eval_(v: str) -> str:
        if ancestor[v] is None:
            return v
        compress(v)
        return label[v]

    bucket: dict[str, list[str]] = {v: [] for v in vertex}
    idom: dict[str, str] = {}

    # --- steps 2 & 3: semidominators, partial idoms -------------------------
    for w in reversed(vertex[1:]):
        for v in preds[w]:
            if v not in semi:  # unreachable predecessor
                continue
            u = eval_(v)
            if semi[u] < semi[w]:
                semi[w] = semi[u]
        bucket[vertex[semi[w]]].append(w)
        ancestor[w] = parent[w]
        for v in bucket[parent[w]]:
            u = eval_(v)
            idom[v] = u if semi[u] < semi[v] else parent[w]
        bucket[parent[w]].clear()

    # --- step 4: finalize idoms ----------------------------------------------
    for w in vertex[1:]:
        if idom[w] != vertex[semi[w]]:
            idom[w] = idom[idom[w]]
    idom[entry] = entry

    return DominatorInfo(entry=entry, idom=idom)


def dominance_frontiers(func: Function, dom: DominatorInfo | None = None) -> dict[str, set[str]]:
    """Cytron et al.'s dominance-frontier computation.

    ``DF[b]`` is the set of blocks where b's dominance stops — the join
    points where SSA construction must place phi nodes for definitions in b.
    """
    if dom is None:
        dom = compute_dominators(func)
    preds = predecessors(func)
    frontier: dict[str, set[str]] = {label: set() for label in dom.idom}
    for label in dom.idom:
        incoming = [p for p in preds[label] if p in dom.idom]
        if len(incoming) < 2:
            continue
        for pred in incoming:
            runner = pred
            while runner != dom.idom[label]:
                frontier[runner].add(label)
                runner = dom.idom[runner]
    return frontier
