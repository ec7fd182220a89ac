"""The pass kernels against the straightforward algorithms they replaced.

Each reference below is the earlier, simpler version of a kernel, kept
here as its specification:

* DCE that recounts every use each round, against ``run_dce``'s use
  counts kept across rounds;
* simplify that scans every remaining node for the cheapest spill
  candidate, against ``_color``'s lazy spill heap;
* a DFS that re-fetches a block's successors and resumes from a saved
  index, against ``postorder``'s successor iterators.

Both sides must agree exactly: same IR, same counts, same order.
"""

import heapq

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir import Branch, Function, Jump, Mov, Ret, VReg
from repro.ir.cfg import postorder
from repro.ir.instructions import BinOp, Instr, LoadI, ScalarLoad, ScalarStore
from repro.ir.opcodes import Opcode
from repro.ir.printer import format_function
from repro.ir.tags import Tag, TagKind
from repro.opt.dce import _is_removable, run_dce
from repro.regalloc.coloring import _color
from repro.regalloc.interference import InterferenceGraph
from tests.analysis.test_dominators import build_cfg

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

G = Tag("g", TagKind.GLOBAL)


# ---------------------------------------------------------------------------
# DCE
# ---------------------------------------------------------------------------

def reference_dce(func: Function) -> int:
    """Recount every use, sweep once, repeat until a sweep removes nothing."""
    removed = 0
    changed = True
    while changed:
        changed = False
        use_counts: dict[VReg, int] = {}
        for instr in func.instructions():
            for reg in instr.uses():
                use_counts[reg] = use_counts.get(reg, 0) + 1
        for block in func.blocks.values():
            kept: list[Instr] = []
            for instr in block.instrs:
                if isinstance(instr, Mov) and instr.dst == instr.src:
                    removed += 1
                    changed = True
                    continue
                dest = instr.dest
                if dest is not None and use_counts.get(dest, 0) == 0 and _is_removable(instr):
                    removed += 1
                    changed = True
                    continue
                kept.append(instr)
            block.instrs = kept
    return removed


_OPS = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD]


@st.composite
def dce_functions(draw):
    """A chain of blocks over a small register pool: redefinitions, dead
    chains, self-copies, dead divisions, stores and loads, and a return
    that keeps some registers live."""
    regs = [VReg(i, "r") for i in range(draw(st.integers(2, 8)))]
    func = Function("f")
    n_blocks = draw(st.integers(1, 4))
    blocks = [func.new_block() for _ in range(n_blocks)]
    reg = st.sampled_from(regs)
    for index, block in enumerate(blocks):
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.sampled_from(["loadi", "bin", "mov", "self", "sload", "sstore"]))
            if kind == "loadi":
                block.append(LoadI(draw(reg), draw(st.integers(-3, 3))))
            elif kind == "bin":
                block.append(BinOp(draw(st.sampled_from(_OPS)), draw(reg), draw(reg), draw(reg)))
            elif kind == "mov":
                block.append(Mov(draw(reg), draw(reg)))
            elif kind == "self":
                r = draw(reg)
                block.append(Mov(r, r))
            elif kind == "sload":
                block.append(ScalarLoad(draw(reg), G))
            else:
                block.append(ScalarStore(draw(reg), G))
        if index + 1 < n_blocks:
            nxt = blocks[index + 1].label
            if draw(st.booleans()):
                block.append(Jump(nxt))
            else:
                # a back edge keeps a register live around a loop
                block.append(Branch(draw(reg), nxt, blocks[draw(st.integers(0, index))].label))
        else:
            block.append(Ret(draw(st.none() | reg)))
    func.reserve_vreg_ids(len(regs))
    return func


@SETTINGS
@given(dce_functions())
def test_dce_matches_recounting_reference(func):
    expected = func.copy()
    expected_removed = reference_dce(expected)
    assert run_dce(func).removed == expected_removed
    assert format_function(func) == format_function(expected)


def test_dce_keeps_dead_division():
    func = Function("f")
    block = func.new_block()
    a, b, dead = VReg(0), VReg(1), VReg(2)
    block.instrs = [
        LoadI(a, 5),
        LoadI(b, 0),
        BinOp(Opcode.DIV, dead, a, b),
        BinOp(Opcode.ADD, VReg(3), a, b),
        Ret(),
    ]
    assert run_dce(func).removed == 1
    assert [type(i) for i in block.instrs] == [LoadI, LoadI, BinOp, Ret]


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

def reference_color(graph: InterferenceGraph, k: int) -> tuple[dict[int, int], list[int]]:
    """Briggs optimistic coloring whose blocked pick scans every remaining
    node for the smallest ``(occurrences / degree, id)``."""
    adjacency = graph.adjacency
    degrees = {n: len(neighbors) for n, neighbors in adjacency.items()}
    heap = [(degree, n) for n, degree in degrees.items() if degree < k]
    heapq.heapify(heap)
    removed: set[int] = set()
    stack: list[int] = []
    nodes = set(adjacency)
    while len(removed) < len(nodes):
        candidate = None
        while heap:
            degree, node = heapq.heappop(heap)
            if node not in removed and degrees[node] == degree:
                candidate = node
                break
        if candidate is None:
            def cost(n: int) -> float:
                return graph.occurrences.get(n, 1.0) / max(degrees[n], 1)

            candidate = min(nodes - removed, key=lambda n: (cost(n), n))
        removed.add(candidate)
        stack.append(candidate)
        for neighbor in adjacency[candidate]:
            if neighbor not in removed:
                degrees[neighbor] -= 1
                if degrees[neighbor] < k:
                    heapq.heappush(heap, (degrees[neighbor], neighbor))
    coloring: dict[int, int] = {}
    spills: list[int] = []
    for node in reversed(stack):
        taken = {coloring[n] for n in adjacency.get(node, ()) if n in coloring}
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            spills.append(node)
        else:
            coloring[node] = color
    return coloring, spills


@st.composite
def graphs(draw):
    """Dense random graphs, so small k blocks simplify often; occurrence
    weights come from a few values, so costs tie."""
    n = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    graph = InterferenceGraph()
    for node in range(n):
        graph.ensure(node)
        if draw(st.integers(0, 4)):
            graph.occurrences[node] = draw(st.sampled_from([1.0, 2.0, 3.0, 10.0, 20.0, 100.0]))
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.floats(0, 1)) < density:
                graph.add_edge(a, b)
    return graph


def _clique(n: int) -> InterferenceGraph:
    graph = InterferenceGraph()
    for a in range(n):
        for b in range(a + 1, n):
            graph.add_edge(a, b)
    return graph


@SETTINGS
@given(graphs(), st.integers(1, 6))
# at k=2 every pick after the first is blocked, and all costs tie
@example(_clique(4), 2)
def test_color_matches_scanning_reference(graph, k):
    coloring, spills = _color(graph, k)
    expected_coloring, expected_spills = reference_color(graph, k)
    assert spills == expected_spills
    assert list(coloring.items()) == list(expected_coloring.items())


# ---------------------------------------------------------------------------
# postorder
# ---------------------------------------------------------------------------

def reference_postorder(func: Function) -> list[str]:
    """DFS that re-fetches a block's successors and resumes from a saved
    index each time the block is back on top of the stack."""
    seen: set[str] = {func.entry}
    order: list[str] = []
    stack: list[tuple[str, int]] = [(func.entry, 0)]
    while stack:
        label, child_idx = stack[-1]
        succs = func.block(label).successors()
        advanced = False
        for idx in range(child_idx, len(succs)):
            succ = succs[idx]
            stack[-1] = (label, idx + 1)
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, 0))
                advanced = True
                break
        if not advanced and stack and stack[-1][0] == label:
            if stack[-1][1] >= len(succs):
                order.append(label)
                stack.pop()
    return order


@st.composite
def cfgs(draw):
    """Successor maps with self-loops, same-target branches, unreachable
    blocks and, sometimes, an edge to a block that does not exist."""
    n = draw(st.integers(1, 14))
    labels = [f"N{i}" for i in range(n)]
    targets = labels + (["MISSING"] if draw(st.integers(0, 4)) == 0 else [])
    edges = {}
    for label in labels:
        fanout = draw(st.integers(0, 2))
        edges[label] = tuple(draw(st.sampled_from(targets)) for _ in range(fanout))
    return edges


def _outcome(walk, func):
    try:
        return walk(func)
    except IRError as exc:
        return ("IRError", str(exc))


@SETTINGS
@given(cfgs())
def test_postorder_matches_reference(edges):
    func = build_cfg(edges, "N0")
    assert _outcome(postorder, func) == _outcome(reference_postorder, func)


def test_postorder_missing_block_raises():
    func = build_cfg({"N0": ("N1",), "N1": ("GONE",)}, "N0")
    with pytest.raises(IRError, match="no block GONE"):
        postorder(func)
