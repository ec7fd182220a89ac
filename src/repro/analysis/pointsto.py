"""Whole-program points-to analysis (paper, section 4).

Modeled on Ruf's context-insensitive analysis, with the paper's choices:

* the whole program is analyzed at once;
* non-local memory is modeled with explicit names (our tags);
* heap memory gets one name per allocating call site;
* the analysis is context-insensitive — one points-to set per register,
  merged over all call sites;
* recursion is approximated: addressed locals of a recursive function are
  a single name per variable (our per-function tags already collapse
  activations), and no strong updates are performed anywhere (the
  analysis is inclusion-based/flow-insensitive, which is strictly
  conservative with respect to Ruf's SSA formulation — the front end
  emits a fresh register per expression, so registers are near-SSA and
  little precision is lost on our workloads).

The solver is Andersen-style: subset constraints over (function, register)
variables and one *contents* cell per tag (field-insensitive), iterated
with a worklist to a fixpoint.

After solving, :func:`apply_points_to` rewrites each pointer-based memory
operation's tag set to the points-to set of its address register, and the
MOD/REF analysis is re-run on the sharper sets (exactly the paper's
sequencing).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..diag.ledger import Decision
from ..intrinsics import ALLOCATORS, is_intrinsic
from ..ir.instructions import (
    BinOp,
    Call,
    CLoad,
    LoadAddr,
    MemLoad,
    MemStore,
    Mov,
    Ret,
    ScalarLoad,
    ScalarStore,
    UnOp,
    VReg,
)
from ..ir.module import Module
from ..ir.opcodes import Opcode
from ..ir.tags import Tag, TagSet

#: analysis variable: a register within a function, or a tag's contents
RegVar = tuple[str, int]  # (function name, vreg id)


@dataclass
class PointsToResult:
    """Solved points-to sets."""

    #: (function, reg id) -> tags the register may point at
    reg_points_to: dict[RegVar, frozenset[Tag]] = field(default_factory=dict)
    #: tag -> tags its contents may point at
    contents: dict[Tag, frozenset[Tag]] = field(default_factory=dict)

    def of_reg(self, func_name: str, reg: VReg) -> frozenset[Tag]:
        return self.reg_points_to.get((func_name, reg.id), frozenset())


class _Solver:
    """Inclusion-constraint solver.

    Nodes are either register variables or tag-contents cells.  Edges are
    subset constraints ``src ⊆ dst``.  Complex constraints (loads/stores
    through pointers, not expressible until points-to sets are known) are
    re-expanded whenever a node's set grows.
    """

    def __init__(self) -> None:
        self.sets: dict[object, set[Tag]] = defaultdict(set)
        self.edges: dict[object, set[object]] = defaultdict(set)
        #: nodes whose growth requires re-deriving edges: node -> callbacks
        self.load_from: dict[object, set[object]] = defaultdict(set)
        self.store_to: dict[object, set[object]] = defaultdict(set)
        self.worklist: list[object] = []
        self.dirty: set[object] = set()

    def add_base(self, node: object, tag: Tag) -> None:
        if tag not in self.sets[node]:
            self.sets[node].add(tag)
            self._touch(node)

    def add_edge(self, src: object, dst: object) -> None:
        if dst not in self.edges[src]:
            self.edges[src].add(dst)
            if self.sets[src]:
                self._touch(src)

    def add_load(self, addr_node: object, dst_node: object) -> None:
        """``dst ⊇ contents(o)`` for every ``o`` in pts(addr)."""
        self.load_from[addr_node].add(dst_node)
        if self.sets[addr_node]:
            self._touch(addr_node)

    def add_store(self, addr_node: object, src_node: object) -> None:
        """``contents(o) ⊇ src`` for every ``o`` in pts(addr)."""
        self.store_to[addr_node].add(src_node)
        if self.sets[addr_node]:
            self._touch(addr_node)

    def _touch(self, node: object) -> None:
        if node not in self.dirty:
            self.dirty.add(node)
            self.worklist.append(node)

    def solve(self) -> None:
        while self.worklist:
            node = self.worklist.pop()
            self.dirty.discard(node)
            pts = self.sets[node]
            # expand complex constraints into new edges
            for dst in self.load_from.get(node, ()):
                for tag in pts:
                    self.add_edge(("contents", tag), dst)
            for src in self.store_to.get(node, ()):
                for tag in pts:
                    self.add_edge(src, ("contents", tag))
            # propagate along subset edges
            for dst in self.edges.get(node, ()):
                target = self.sets[dst]
                before = len(target)
                target |= pts
                if len(target) != before:
                    self._touch(dst)


def run_points_to(module: Module) -> PointsToResult:
    """Generate constraints for the whole module and solve."""
    solver = _Solver()

    def reg_node(func_name: str, reg: VReg) -> object:
        return ("reg", func_name, reg.id)

    ret_node = lambda func_name: ("ret", func_name)  # noqa: E731

    for func in module.functions.values():
        fname = func.name
        for block in func.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, LoadAddr):
                    solver.add_base(reg_node(fname, instr.dst), instr.tag)
                elif isinstance(instr, Mov):
                    solver.add_edge(
                        reg_node(fname, instr.src), reg_node(fname, instr.dst)
                    )
                elif isinstance(instr, BinOp):
                    # pointer arithmetic flows addresses through +/-; other
                    # operators cannot produce a valid pointer
                    if instr.opcode in (Opcode.ADD, Opcode.SUB):
                        solver.add_edge(
                            reg_node(fname, instr.lhs), reg_node(fname, instr.dst)
                        )
                        solver.add_edge(
                            reg_node(fname, instr.rhs), reg_node(fname, instr.dst)
                        )
                elif isinstance(instr, UnOp):
                    if instr.opcode in (Opcode.NEG, Opcode.NOT):
                        solver.add_edge(
                            reg_node(fname, instr.src), reg_node(fname, instr.dst)
                        )
                elif isinstance(instr, (ScalarLoad, CLoad)):
                    solver.add_edge(
                        ("contents", instr.tag), reg_node(fname, instr.dst)
                    )
                elif isinstance(instr, ScalarStore):
                    solver.add_edge(
                        reg_node(fname, instr.src), ("contents", instr.tag)
                    )
                elif isinstance(instr, MemLoad):
                    solver.add_load(
                        reg_node(fname, instr.addr), reg_node(fname, instr.dst)
                    )
                elif isinstance(instr, MemStore):
                    solver.add_store(
                        reg_node(fname, instr.addr), reg_node(fname, instr.src)
                    )
                elif isinstance(instr, Ret):
                    if instr.value is not None:
                        solver.add_edge(
                            reg_node(fname, instr.value), ret_node(fname)
                        )
                elif isinstance(instr, Call):
                    _call_constraints(module, solver, fname, instr, reg_node, ret_node)

    solver.solve()

    result = PointsToResult()
    for node, tags in solver.sets.items():
        if isinstance(node, tuple) and node[0] == "reg":
            result.reg_points_to[(node[1], node[2])] = frozenset(tags)
        elif isinstance(node, tuple) and node[0] == "contents":
            result.contents[node[1]] = frozenset(tags)
    return result


def _call_constraints(module, solver, fname, instr, reg_node, ret_node) -> None:
    callee = instr.callee
    targets: list[str] = []
    if callee is not None and callee in module.functions:
        targets = [callee]
    elif callee is None:
        targets = sorted(module.addressed_functions & set(module.functions))
    elif is_intrinsic(callee):
        if callee in ALLOCATORS and instr.dst is not None:
            heap = module.heap_tag_for_site(instr.site_id)
            solver.add_base(reg_node(fname, instr.dst), heap)
        elif callee in {"memset", "memcpy", "strcpy"} and instr.dst is not None:
            # these return their first argument
            if instr.args:
                solver.add_edge(
                    reg_node(fname, instr.args[0]), reg_node(fname, instr.dst)
                )
        if callee == "memcpy" and len(instr.args) >= 2:
            # contents flow from source block to destination block
            solver.add_load(reg_node(fname, instr.args[1]), ("xfer", fname, instr.site_id))
            solver.add_store(reg_node(fname, instr.args[0]), ("xfer", fname, instr.site_id))
        return
    for target in targets:
        target_func = module.functions[target]
        for arg, param in zip(instr.args, target_func.params):
            solver.add_edge(reg_node(fname, arg), reg_node(target, param))
        if instr.dst is not None:
            solver.add_edge(ret_node(target), reg_node(fname, instr.dst))


def apply_points_to(
    module: Module,
    result: PointsToResult,
    fallback_visible: dict[str, frozenset[Tag]],
) -> list[Decision]:
    """Rewrite pointer-based operations' tag sets from the solution.

    An empty points-to set means the analysis saw no address flow to the
    register (e.g. an integer reinterpreted as a pointer would); we fall
    back to the MOD/REF visible universe rather than claim the operation
    touches nothing.

    Returns one ``refined`` row per function whose operations changed:
    provenance for the sharper tag sets the promotion decisions cite
    under the pointer analysis.
    """
    decisions: list[Decision] = []
    for func in module.functions.values():
        universe = fallback_visible.get(func.name, frozenset())
        refined = fell_back = 0
        for block in func.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, (MemLoad, MemStore)):
                    pts = result.of_reg(func.name, instr.addr)
                    if pts:
                        new_tags = TagSet.from_iterable(pts)
                        if not instr.tags.universal:
                            new_tags = new_tags.intersect(instr.tags)
                        instr.tags = new_tags
                        refined += 1
                    elif instr.tags.universal:
                        instr.tags = TagSet.from_iterable(universe)
                        fell_back = fell_back + 1
        if refined or fell_back:
            decisions.append(
                Decision(
                    "points_to", func.name, "refined",
                    detail={"ops_refined": refined, "ops_fallback": fell_back},
                )
            )
    return decisions
