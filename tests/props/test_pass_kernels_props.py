"""The pass kernels against the straightforward algorithms they replaced.

Each reference below is the earlier, simpler version of a kernel, kept
here as its specification:

* DCE that recounts every use each round, against ``run_dce``'s use
  counts kept across rounds;
* simplify that scans every remaining node for the cheapest spill
  candidate, against ``_color``'s lazy spill heap;
* a DFS that re-fetches a block's successors and resumes from a saved
  index, against ``postorder``'s successor iterators;
* value numbering that numbers every operand again in each handler and
  states the reuse rule five times, against ``_number_instr``;
* PRE walks that re-derive every instruction's key and kill mask, against
  ``run_pre``'s one list of (bit, kill mask) per block.

Both sides must agree exactly: same IR, same counts, same order.
"""

import heapq

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir import Branch, Function, Jump, Mov, Ret, VReg
from repro.ir.cfg import postorder, predecessors, reverse_postorder
from repro.ir.instructions import (
    MEMORY_LOADS,
    BinOp,
    Call,
    CLoad,
    Instr,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    ScalarLoad,
    ScalarStore,
    UnOp,
    const_key,
)
from repro.ir.opcodes import COMMUTATIVE_OPS, Opcode
from repro.ir.printer import format_function
from repro.ir.tags import Tag, TagKind, TagSet
from repro.opt.dce import _is_removable, run_dce
from repro.opt.pre import PREStats, _kill_mask, run_pre
from repro.opt.valuenum import (
    VNStats,
    _BlockNumbering,
    _try_fold_binop,
    _try_fold_unop,
    run_value_numbering,
)
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


# ---------------------------------------------------------------------------
# value numbering and PRE: random instructions
# ---------------------------------------------------------------------------

H = Tag("h", TagKind.GLOBAL)
L = Tag("l", TagKind.LOCAL)
_TAGS = [G, H, L]
_TAG_SETS = [TagSet.of(G), TagSet.of(G, H), TagSet.of(L), TagSet.empty(), TagSet.universe()]
_CONSTANTS = [0, 1, -1, 7, 0.0, -0.0, 1.5, -2.5, 1e308, float("inf")]
_BIN_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.XOR, Opcode.SHL, Opcode.CMP_LT, Opcode.CMP_EQ,
]
_UN_OPS = [Opcode.NEG, Opcode.NOT, Opcode.LNOT, Opcode.I2F, Opcode.F2I]
_KINDS = [
    "loadi", "mov", "bin", "un", "la", "sload", "cload", "sstore",
    "mload", "mstore", "call",
]


def _draw_instr(draw, reg) -> Instr:
    kind = draw(st.sampled_from(_KINDS))
    tag = st.sampled_from(_TAGS)
    tags = st.sampled_from(_TAG_SETS)
    if kind == "loadi":
        return LoadI(draw(reg), draw(st.sampled_from(_CONSTANTS)))
    if kind == "mov":
        return Mov(draw(reg), draw(reg))
    if kind == "bin":
        return BinOp(draw(st.sampled_from(_BIN_OPS)), draw(reg), draw(reg), draw(reg))
    if kind == "un":
        return UnOp(draw(st.sampled_from(_UN_OPS)), draw(reg), draw(reg))
    if kind == "la":
        return LoadAddr(draw(reg), draw(tag), draw(st.integers(0, 1)))
    if kind == "sload":
        return ScalarLoad(draw(reg), draw(tag))
    if kind == "cload":
        return CLoad(draw(reg), draw(tag))
    if kind == "sstore":
        return ScalarStore(draw(reg), draw(tag))
    if kind == "mload":
        return MemLoad(draw(reg), draw(reg), draw(tags))
    if kind == "mstore":
        return MemStore(draw(reg), draw(reg), draw(tags))
    args = [draw(reg) for _ in range(draw(st.integers(0, 2)))]
    return Call(draw(st.none() | reg), "f", args, mod=draw(tags))


@st.composite
def kernel_functions(draw):
    """Random blocks over a small register pool, some instructions
    recomputing an earlier one, wired into a random CFG (loops, joins,
    unreachable blocks) that ends in returns."""
    regs = [VReg(i, "r") for i in range(draw(st.integers(2, 6)))]
    reg = st.sampled_from(regs)
    func = Function("f")
    blocks = [func.new_block() for _ in range(draw(st.integers(1, 5)))]
    for block in blocks:
        for _ in range(draw(st.integers(0, 10))):
            earlier = [i for i in block.instrs if i.dest is not None]
            if earlier and draw(st.integers(0, 3)) == 0:
                # recompute an earlier value into another register
                again = draw(st.sampled_from(earlier)).copy()
                again.dst = draw(reg)
                block.append(again)
            else:
                block.append(_draw_instr(draw, reg))
        target = st.sampled_from([b.label for b in blocks])
        end = draw(st.sampled_from(["jump", "branch", "ret"]))
        if end == "jump":
            block.append(Jump(draw(target)))
        elif end == "branch":
            block.append(Branch(draw(reg), draw(target), draw(target)))
        else:
            block.append(Ret(draw(st.none() | reg)))
    func.reserve_vreg_ids(len(regs))
    return func


# the value-numbering kernel before each operand was numbered once and
# the five reuse blocks became one; only the constant key is new

def reference_propagate_copies(instr: Instr, state: _BlockNumbering, stats: VNStats) -> None:
    mapping: dict[VReg, VReg] = {}
    for reg in set(instr.uses()):
        vn = state.use_vn(reg)
        home = state.home_reg(vn)
        if home is not None and home.id != reg.id:
            mapping[reg] = home
    if mapping:
        instr.replace_uses(mapping)
        stats.copies_propagated += len(mapping)


def _reference_reuse(instr, key, state: _BlockNumbering, stats: VNStats, field: str):
    vn = state.expr_vn.get(key)
    hit = vn is not None and state.home_valid(vn)
    if vn is None:
        vn = state.new_vn()
        state.expr_vn[key] = vn
    if hit:
        setattr(stats, field, getattr(stats, field) + 1)
        home = state.home_reg(vn)
        state.define(instr.dst, vn)
        return Mov(instr.dst, home)
    state.define(instr.dst, vn)
    return instr


def reference_number_instr(instr: Instr, state: _BlockNumbering, stats: VNStats) -> Instr:
    reference_propagate_copies(instr, state, stats)
    if isinstance(instr, LoadI):
        key = ("const", const_key(instr.value))
        vn = state.expr_vn.get(key)
        if vn is None:
            vn = state.new_vn()
            state.expr_vn[key] = vn
            state.vn_const[vn] = instr.value
        state.define(instr.dst, vn)
        return instr
    if isinstance(instr, Mov):
        state.define(instr.dst, state.use_vn(instr.src))
        return instr
    if isinstance(instr, LoadAddr):
        key = ("la", instr.tag, instr.offset)
        return _reference_reuse(instr, key, state, stats, "expressions_reused")
    if isinstance(instr, BinOp):
        lhs_vn = state.use_vn(instr.lhs)
        rhs_vn = state.use_vn(instr.rhs)
        if lhs_vn in state.vn_const and rhs_vn in state.vn_const:
            folded = _try_fold_binop(instr.opcode, state.vn_const[lhs_vn], state.vn_const[rhs_vn])
            if folded is not None:
                stats.constants_folded += 1
                return reference_number_instr(LoadI(instr.dst, folded), state, stats)
        a, b = lhs_vn, rhs_vn
        if instr.opcode in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        key = ("bin", instr.opcode, a, b)
        return _reference_reuse(instr, key, state, stats, "expressions_reused")
    if isinstance(instr, UnOp):
        src_vn = state.use_vn(instr.src)
        if src_vn in state.vn_const:
            folded = _try_fold_unop(instr.opcode, state.vn_const[src_vn])
            if folded is not None:
                stats.constants_folded += 1
                return reference_number_instr(LoadI(instr.dst, folded), state, stats)
        key = ("un", instr.opcode, src_vn)
        return _reference_reuse(instr, key, state, stats, "expressions_reused")
    if isinstance(instr, (ScalarLoad, CLoad)):
        key = ("sload", instr.tag, state.tag_ver(instr.tag))
        return _reference_reuse(instr, key, state, stats, "loads_removed")
    if isinstance(instr, ScalarStore):
        src_vn = state.use_vn(instr.src)
        state.kill_tag(instr.tag)
        state.mem_epoch += 1
        state.expr_vn[("sload", instr.tag, state.tag_ver(instr.tag))] = src_vn
        return instr
    if isinstance(instr, MemLoad):
        key = ("load", state.use_vn(instr.addr), state.mem_epoch)
        return _reference_reuse(instr, key, state, stats, "loads_removed")
    if isinstance(instr, MemStore):
        src_vn = state.use_vn(instr.src)
        addr_vn = state.use_vn(instr.addr)
        state.kill_tags(instr.tags)
        state.expr_vn[("load", addr_vn, state.mem_epoch)] = src_vn
        return instr
    if isinstance(instr, Call):
        if instr.mod:
            state.kill_tags(instr.mod)
        if instr.dst is not None:
            state.define(instr.dst, state.new_vn())
    return instr


def reference_value_numbering(func: Function) -> VNStats:
    stats = VNStats()
    for block in func.blocks.values():
        state = _BlockNumbering(func)
        block.instrs = [reference_number_instr(i, state, stats) for i in block.instrs]
    return stats


def _signed_zero_function() -> Function:
    """0.0 and -0.0 in one block: two constants, not one."""
    func = Function("f")
    func.new_block().instrs = [LoadI(VReg(0), 0.0), LoadI(VReg(1), -0.0), Ret(VReg(1))]
    func.reserve_vreg_ids(2)
    return func


@SETTINGS
@given(kernel_functions())
@example(_signed_zero_function())
def test_value_numbering_matches_reference(func):
    actual, expected = func.copy(), func.copy()
    assert run_value_numbering(actual) == reference_value_numbering(expected)
    assert format_function(actual) == format_function(expected)


def test_value_numbering_numbers_each_operand_once(monkeypatch):
    calls = []
    use_vn = _BlockNumbering.use_vn

    def counting(self, reg):
        calls.append(reg.id)
        return use_vn(self, reg)

    monkeypatch.setattr(_BlockNumbering, "use_vn", counting)
    func = Function("f")
    block = func.new_block()
    x, y, s, t = VReg(0), VReg(1), VReg(2), VReg(3)
    block.instrs = [
        BinOp(Opcode.ADD, s, x, y),
        BinOp(Opcode.MUL, t, s, s),
        MemStore(t, x, TagSet.of(G)),
        Ret(t),
    ]
    run_value_numbering(func)
    # once per distinct operand: {x, y}, {s}, {t, x}, {t}
    assert sorted(calls) == [0, 0, 1, 2, 3, 3]


# the PRE walks before each instruction's bit and kill mask were derived
# once: every walk re-derives the key and the kill mask

class _SingleTag:
    universal = False

    def __init__(self, tag: Tag) -> None:
        self._tag = tag

    def __iter__(self):
        return iter((self._tag,))


class _ReferenceExprTable:
    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.by_reg: dict[int, int] = {}
        self.by_tag: dict[Tag, int] = {}
        self.all_loads = 0
        self.untagged_loads = 0

    def intern(self, key: tuple, uses: tuple[int, ...], tags, is_load: bool) -> None:
        if key in self.index:
            return
        idx = len(self.keys)
        self.keys.append(key)
        self.index[key] = idx
        bit = 1 << idx
        for reg_id in uses:
            self.by_reg[reg_id] = self.by_reg.get(reg_id, 0) | bit
        if is_load:
            self.all_loads |= bit
            if tags is not None and not tags.universal:
                for tag in tags:
                    self.by_tag[tag] = self.by_tag.get(tag, 0) | bit


def reference_key_of(instr: Instr) -> tuple | None:
    if isinstance(instr, BinOp):
        a, b = instr.lhs.id, instr.rhs.id
        if instr.opcode in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return ("bin", instr.opcode, a, b)
    if isinstance(instr, UnOp):
        return ("un", instr.opcode, instr.src.id)
    if isinstance(instr, LoadAddr):
        return ("la", instr.tag, instr.offset)
    if isinstance(instr, (ScalarLoad, CLoad)):
        return ("sl", instr.tag)
    if isinstance(instr, MemLoad):
        return ("ld", instr.addr.id)
    return None


def reference_collect(func: Function, exprs: _ReferenceExprTable) -> None:
    for instr in func.instructions():
        key = reference_key_of(instr)
        if isinstance(instr, (ScalarLoad, CLoad)):
            exprs.intern(key, (), _SingleTag(instr.tag), True)
        elif isinstance(instr, MemLoad):
            exprs.intern(key, (instr.addr.id,), instr.tags, True)
        elif isinstance(instr, BinOp):
            exprs.intern(key, (instr.lhs.id, instr.rhs.id), None, False)
        elif isinstance(instr, UnOp):
            exprs.intern(key, (instr.src.id,), None, False)
        elif isinstance(instr, LoadAddr):
            exprs.intern(key, (), None, False)
    tagged = 0
    for bits in exprs.by_tag.values():
        tagged |= bits
    exprs.untagged_loads = exprs.all_loads & ~tagged


def _reference_step(instr: Instr, exprs, cur: int) -> int:
    key = reference_key_of(instr)
    kill = _kill_mask(instr, exprs)
    cur &= ~kill
    if key is not None and not (kill & (1 << exprs.index[key])):
        cur |= 1 << exprs.index[key]
    return cur


def reference_pre(func: Function) -> PREStats:
    stats = PREStats()
    exprs = _ReferenceExprTable()
    reference_collect(func, exprs)
    if not exprs.keys:
        return stats
    order = reverse_postorder(func)
    preds = predecessors(func)
    all_bits = (1 << len(exprs.keys)) - 1
    comp: dict[str, int] = {}
    transp: dict[str, int] = {}
    for label in order:
        computed = killed = 0
        for instr in func.block(label).instrs:
            computed = _reference_step(instr, exprs, computed)
            killed |= _kill_mask(instr, exprs)
        comp[label] = computed
        transp[label] = all_bits & ~killed
    avail_in = {label: 0 for label in order}
    avail_out = {label: all_bits if label != func.entry else comp[label] for label in order}
    changed = True
    while changed:
        changed = False
        for label in order:
            inset = 0
            if label != func.entry and preds[label]:
                inset = all_bits
                for pred in preds[label]:
                    if pred in avail_out:
                        inset &= avail_out[pred]
            outset = comp[label] | (inset & transp[label])
            if inset != avail_in[label] or outset != avail_out[label]:
                avail_in[label] = inset
                avail_out[label] = outset
                changed = True
    redundant: set[int] = set()
    for label in order:
        cur = avail_in[label]
        for instr in func.block(label).instrs:
            key = reference_key_of(instr)
            if key is not None and cur & (1 << exprs.index[key]):
                redundant.add(exprs.index[key])
            cur = _reference_step(instr, exprs, cur)
    if not redundant:
        return stats
    temps = {idx: func.new_vreg("pre") for idx in redundant}
    for label in order:
        cur = avail_in[label]
        block = func.block(label)
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            key = reference_key_of(instr)
            idx = exprs.index.get(key) if key is not None else None
            if idx in temps and cur & (1 << idx):
                new_instrs.append(Mov(instr.dest, temps[idx]))
                stats.expressions_removed += 1
                if isinstance(instr, MEMORY_LOADS):
                    stats.loads_removed += 1
            else:
                new_instrs.append(instr)
                if idx in temps:
                    new_instrs.append(Mov(temps[idx], instr.dest))
            cur = _reference_step(instr, exprs, cur)
        block.instrs = new_instrs
    return stats


@SETTINGS
@given(kernel_functions())
def test_pre_matches_reference(func):
    actual, expected = func.copy(), func.copy()
    assert run_pre(actual) == reference_pre(expected)
    assert format_function(actual) == format_function(expected)


def test_pre_derives_key_and_kill_mask_once(monkeypatch):
    from repro.opt import pre

    counts = {"expression": 0, "kill": 0}
    expression, kill_mask = pre._expression, pre._kill_mask

    def counting_expression(instr):
        counts["expression"] += 1
        return expression(instr)

    def counting_kill(instr, exprs):
        counts["kill"] += 1
        return kill_mask(instr, exprs)

    monkeypatch.setattr(pre, "_expression", counting_expression)
    monkeypatch.setattr(pre, "_kill_mask", counting_kill)
    # a diamond whose join recomputes x + y: one redundant expression
    func = build_cfg({"A": ("B", "C"), "B": ("D",), "C": ("D",), "D": ()}, "A")
    x, y = VReg(10), VReg(11)
    func.reserve_vreg_ids(12)
    for label in "AD":
        func.block(label).instrs.insert(0, BinOp(Opcode.ADD, VReg(12 + ord(label)), x, y))
    n_instrs = sum(len(b.instrs) for b in func.blocks.values())
    assert run_pre(func).expressions_removed == 1
    assert counts == {"expression": n_instrs, "kill": n_instrs}
