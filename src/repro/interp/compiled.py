"""The compiled execution tier: one generated Python function per IR function.

The reference loop in :mod:`repro.interp.machine` pays, per executed
instruction, for a ``type()`` dispatch chain, a register-list index per
operand, a dict lookup per scalar tag address and a ``max_steps``
comparison.  This tier applies the paper's own discipline to the
interpreter.  On its first call, each IR function is translated into one
Python function in which

* every virtual register is a Python local (``r7``);
* every frame slot of at most one word whose address is never taken (no
  ``LoadAddr`` names it) is a local too (``x2``).  No pointer to it can
  exist, so neither callees nor pointer-based memory operations can touch
  it.  It is loaded when the activation starts and stored back at returns;
* scalar globals whose address is never taken anywhere in the module are
  locals (``g0_1``) over *tiles*.  A callee may name a global without any
  pointer, so a tile must be call-free: it is the whole function when the
  function calls no other function, otherwise each maximal call-free loop
  nest.  Inside a tile the global is unambiguous, so it is loaded on the
  tile's entry edges and stored on its exit edges.  This is register
  promotion with loop nests as the tiles of register reuse;
* control flow is straight-line Python wherever the graph is acyclic.
  Every block is emitted inline at each edge into it, on both arms of a
  branch.  A join, a block with two or more predecessors, is copied into
  each of them when it and the blocks inlined after it total at most
  ``_JOIN_LIMIT`` IR instructions.  A ``while`` loop dispatching on an
  integer ``_pc`` remains only for the entry, the targets of retreating
  edges (loop headers) and the joins too big to copy, most deeply nested
  first.  Of a branch's two arms, the one with less inlined code nests
  under the ``if`` and the other follows it unindented, so each level of
  nesting holds at most half the code of the level around it: an arm
  inlining N IR instructions nests at most log2(N) + 9 levels deep,
  far below the 100 at which CPython's tokenizer stops;
* counters are batched per *path*.  A path is the code from a dispatch
  arm's head, or from just after a call, to its leaf: the next arm jump,
  return, call (counted) or jump to a missing block.  Every copy of a
  block lies on exactly one path, so at each leaf the path's whole count
  is static: ``_t`` accumulates operation counts, which the fuel check
  reads, and each distinct mix of the other fields has one visit counter
  (``_m0``, ...) bumped once per path executed.  They are flushed to
  :class:`~repro.interp.counters.Counters`, each field a linear
  combination of visit counters, at returns and on every exit, and, for
  ``total_ops`` only, before calls that read or spend the operation
  budget: ``clock()`` reads ``total_ops``, and a callee's budget starts
  from it;
* a compare whose only reader is the branch right after it is folded
  into that branch's ``if``;
* a greatest fixpoint over each function's definitions finds the
  registers that only ever hold an ``int`` in signed 64-bit range
  (:func:`_int_registers`).  While a path is emitted, the registers
  trap-tested on it, or computed from known ints, are known ints too,
  until redefined; each branch arm starts from the facts held at the
  branch, each dispatch arm from the proven ones alone.  Arithmetic on
  known ints skips the class tests the reference loop's generic helpers
  make: the wrap check of ADD/SUB/MUL/NEG tests only the range, DIV/MOD
  and the bitwise ops take their int path unconditionally, and a load or
  store through such an address needs no trap test;
* every wrap check tests a compact bound, +-(2**30 - 1), before the
  64-bit one: CPython specializes a compare of two one-digit ints and
  never one against +-2**63, and a value past the compact bound is rare.
  The rare mask is one call to :func:`~repro.interp.machine.wrap_int`.
  A second fixpoint finds the registers that never hold a negative int
  (:func:`_nonneg_registers`); with operands proven in range, a sum with
  one such operand checks only the side it can overflow (ADD and the
  minuend of SUB the upper bound, the subtrahend the lower), a SUB of two
  checks neither, and results that cannot leave the range (bitwise ops,
  SHR, NOT, a non-negative DIV/MOD) are not checked at all;
* the call depth is an argument, ``_F_f(m, _cd, ...)``: callers pass
  ``_cd + 1``, and only a deopt stores it on the machine, for the
  reference loop it resumes.

Promoted accesses still count as loads and stores: the tier changes how
the program executes, never what the experiment measures.

Exactness
---------
Every observable is bit-identical to the reference loop: output, exit
code, counters, ``block_visits``, ``clock()`` values, and the counter and
memory state left behind by traps and ``max_steps`` exhaustion.

* Each arm head (after its ``_vb`` bump, when profiled) and each point
  just after a call does one fuel check, ``if _t > _lim - M:``, where
  ``M`` is the largest peak of the reference loop's running count on any
  path from that point (a ``nop``'s +1/-1 peaks one above the count
  before it).  The check trips iff some path from there could exhaust the
  budget.  It then deoptimizes to the one deopt target, the reference
  loop: nothing has run or been counted since the check, so promoted
  values are stored, counters are flushed, and
  :meth:`Machine._exec_blocks` resumes at that (block, instruction) with
  the live register file and frame.  The reference loop then either
  raises exactly where it must, or finishes the run when the path taken
  was short enough.
* An exception inside a path (a trap, ``exit()``, an error raised by a
  callee) crosses one handler.  It stores promoted values, flushes the
  counters, and adds the counts of the path's instructions that ran up
  to and including the raising one: its leaf never ran.  ``fixes`` maps
  each generated line to minus that prefix, found from the line the
  exception passed through.  A call's count is bumped before the call,
  so an exception leaving a callee needs no fix.

The generated code lives in one cache on the module, ``module._compiled``.
It is checked on every run against an identity signature of the module's
instruction objects and rebuilt on mismatch; optimization passes replace
instruction objects, which the signature catches.  Mutating a *field* of
an existing instruction in place is invisible to it: call
:func:`invalidate_decoded` (or run with ``MachineOptions(engine="simple")``)
in that case.  ``Module`` drops the cache when pickled or deep-copied.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from operator import neg
from typing import Any, Callable

from ..analysis.liveness import compute_liveness
from ..analysis.loops import find_loops
from ..errors import InterpError, InterpTrap, ResourceLimitError
from ..intrinsics import is_intrinsic
from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    Branch,
    Call,
    CLoad,
    Jump,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    Mov,
    Nop,
    Ret,
    ScalarLoad,
    ScalarStore,
    UnOp,
)
from ..ir.module import Module
from ..ir.opcodes import Opcode
from ..ir.tags import TagKind
from ..trace import current_trace, span
from .counters import Counters, counted_fields
from .machine import Machine, _binop, _unop, c_div, c_mod, f2i_trap, wrap_int
from .memory import _ALIGN, MemoryImage, frame_layout

#: every counter field, ``total_ops`` first; a trap fix is a vector over them
_FIELDS = tuple(f.name for f in fields(Counters))
_FIELD_INDEX = {fld: n for n, fld in enumerate(_FIELDS)}

#: a join (a block with two or more predecessors) is copied into each
#: predecessor when it and every block inlined after it total at most this
#: many IR instructions
_JOIN_LIMIT = 24

_SCALAR_OPS = (ScalarLoad, CLoad, ScalarStore)

#: the counts of an empty path, one per ``_FIELDS`` entry
_NO_COUNTS = (0,) * len(_FIELDS)


@cache
def _counted_at(cls) -> tuple[int, ...]:
    """The ``_FIELDS`` indices one executed instruction of ``cls`` bumps."""
    return tuple(_FIELD_INDEX[fld] for fld in counted_fields(cls))

#: compares need no wrap: the result is always 0 or 1
_CMP_SRC = {
    Opcode.CMP_LT: "<",
    Opcode.CMP_LE: "<=",
    Opcode.CMP_GT: ">",
    Opcode.CMP_GE: ">=",
    Opcode.CMP_EQ: "==",
    Opcode.CMP_NE: "!=",
}

#: ops whose int result wraps; inlined with a range check that masks only
#: on actual overflow
_WRAP_SRC = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}

#: bitwise ops; their results wrap only when an operand is out of range
#: (hand-written IL may load a literal such as ``0xFFFFFFFFFFFFFFFF``)
_BIT_SRC = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}

#: ops whose result is an int whatever their operands are (or which raise)
_ALWAYS_INT = frozenset(_CMP_SRC) | frozenset(_BIT_SRC) | {
    Opcode.SHL, Opcode.SHR, Opcode.NOT, Opcode.LNOT, Opcode.F2I
}
#: ops whose result is an int when their operands are
_INT_IF_INT = frozenset(_WRAP_SRC) | {Opcode.DIV, Opcode.MOD, Opcode.NEG}

#: CPython 3.11 specializes a compare of two one-digit ints (magnitude
#: below 2**30) and never one against a bound of +-2**63, so every range
#: check tests this compact bound first: only a value beyond it reaches the
#: 64-bit test
_COMPACT = 1073741823
_INT_MAX = 9223372036854775807
_INT_MIN = -9223372036854775808
_BOTH = (
    f"({{v}} > {_COMPACT} or {{v}} < -{_COMPACT})"
    f" and not {_INT_MIN} <= {{v}} <= {_INT_MAX}"
)
#: range checks by the bounds a result can cross; "float" guards a result
#: that may be a float, whose class is tested first
_CHECKS = {
    "upper": f"{{v}} > {_COMPACT} and {{v}} > {_INT_MAX}",
    "lower": f"{{v}} < -{_COMPACT} and {{v}} < {_INT_MIN}",
    "both": _BOTH,
    "float": "{v}.__class__ is int and " + _BOTH,
}


def _body(instrs: list) -> list:
    """A block's instructions up to its first terminator: the reference
    loop never runs past one."""
    for idx, instr in enumerate(instrs):
        if instr.is_terminator():
            return instrs[: idx + 1]
    return instrs


def _successors(instrs: list) -> tuple[str, ...]:
    term = instrs[-1] if instrs else None
    if term.__class__ is Jump:
        return (term.target,)
    if term.__class__ is Branch:
        if term.if_true == term.if_false:
            return (term.if_true,)
        return (term.if_true, term.if_false)
    return ()


def _dfs(entry: str, succs: dict[str, list[str]]) -> tuple[list[str], set[str]]:
    """The blocks reachable from ``entry`` in DFS postorder, and the targets
    of the retreating edges: every cycle passes through one of them."""
    post: list[str] = []
    retreating: set[str] = set()
    on_stack = {entry}
    done: set[str] = set()
    stack = [(entry, iter(succs[entry]))]
    while stack:
        lbl, rest = stack[-1]
        for succ in rest:
            if succ in on_stack:
                retreating.add(succ)
            elif succ not in done:
                on_stack.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            stack.pop()
            on_stack.discard(lbl)
            done.add(lbl)
            post.append(lbl)
    return post, retreating


def _yields_int(instr, ints: set[int]) -> bool:
    """Does ``instr`` always write an ``int`` in signed 64-bit range, given
    that the registers in ``ints`` always hold one?"""
    cls = instr.__class__
    if cls is LoadI:
        value = instr.value
        return type(value) is int and _INT_MIN <= value <= _INT_MAX
    if cls is LoadAddr:
        # addresses lie far below 2**62
        return type(instr.offset) is int and abs(instr.offset) < 1 << 62
    if cls is Mov:
        return instr.src.id in ints
    if cls is BinOp or cls is UnOp:
        op = instr.opcode
        if op in _ALWAYS_INT:
            return True
        return op in _INT_IF_INT and all(u.id in ints for u in instr.uses())
    # loads and call results may hold anything
    return False


def _never_negative(instr, nonneg: set[int]) -> bool:
    """Does ``instr`` always write an int in ``[0, 2**63)``, given that the
    registers in ``nonneg`` always hold one?"""
    cls = instr.__class__
    if cls is LoadI:
        value = instr.value
        return type(value) is int and 0 <= value <= _INT_MAX
    if cls is Mov:
        return instr.src.id in nonneg
    if cls is BinOp or cls is UnOp:
        op = instr.opcode
        if op in _CMP_SRC or op is Opcode.LNOT:
            return True
        if op is Opcode.AND:  # at most the non-negative operand
            return instr.lhs.id in nonneg or instr.rhs.id in nonneg
        if op is Opcode.SHR:
            return instr.lhs.id in nonneg
        if op is Opcode.DIV or op is Opcode.MOD:
            return instr.lhs.id in nonneg and instr.rhs.id in nonneg
    return False


#: register -> its defining instructions (parameters left out: a caller
#: may pass anything), and register -> the registers defined from it
_DefGraph = tuple[dict[int, list], dict[int, list[int]]]


def _def_graph(func: Function) -> _DefGraph:
    """``func``'s definitions and readers, for :func:`_greatest_fixpoint`."""
    params = {p.id for p in func.params}
    defs: dict[int, list] = {}
    readers: dict[int, list[int]] = {}
    for instr in func.instructions():
        dst = instr.dest
        if dst is not None:
            if dst.id not in params:
                defs.setdefault(dst.id, []).append(instr)
            for use in instr.uses():
                readers.setdefault(use.id, []).append(dst.id)
    return defs, readers


def _greatest_fixpoint(
    graph: _DefGraph, holds: Callable[[Any, set[int]], bool]
) -> frozenset[int]:
    """The registers whose every definition ``holds``, given the
    registers claimed so far.

    Start from every register some instruction defines, and drop one
    while any of its definitions may fail: a parameter or a register no
    instruction defines is never claimed.
    """
    defs, readers = graph
    claimed = set(defs)
    work = list(claimed)
    while work:
        rid = work.pop()
        if rid in claimed and not all(holds(i, claimed) for i in defs[rid]):
            claimed.discard(rid)
            work.extend(readers.get(rid, ()))
    return frozenset(claimed)


def _int_registers(graph: _DefGraph) -> frozenset[int]:
    """The registers that only ever hold an ``int`` in signed 64-bit
    range: their arithmetic needs no class test."""
    return _greatest_fixpoint(graph, _yields_int)


def _nonneg_registers(graph: _DefGraph) -> frozenset[int]:
    """The registers that only ever hold an ``int`` in ``[0, 2**63)``: a
    sum with one can overflow on one side only."""
    return _greatest_fixpoint(graph, _never_negative)


# -- runtime helpers the generated code calls --------------------------------
def _raiser(message: str) -> Callable:
    """A callable raising ``InterpError(message)``, for errors the reference
    loop raises at run time: code generation itself never raises early."""

    def _raise(*_args):
        raise InterpError(message)

    return _raise


def _trap_load(addr) -> None:
    raise InterpTrap(f"load through non-integer address {addr!r}")


def _trap_store(addr) -> None:
    raise InterpTrap(f"store through non-integer address {addr!r}")


def _untrap(c, fixes: dict[int, tuple[int, ...]], exc: BaseException) -> None:
    """Take back ``fixes`` at the generated line ``exc`` passed through:
    minus the counts of its path up to and including the instruction that
    raised, which the path's leaf never bumped.  Raises the F2I trap in
    place of ``exc`` when ``exc`` is a failed inline conversion."""
    mix = fixes.get(exc.__traceback__.tb_lineno)
    if mix:
        for fld, n in zip(_FIELDS, mix):
            if n:
                setattr(c, fld, getattr(c, fld) - n)
    if isinstance(exc, (ValueError, OverflowError)) and exc.__traceback__.tb_next is None:
        # raised by the generated code itself, not by a helper it called:
        # the inline ``int()`` of an F2I met NaN or an infinity
        raise f2i_trap(exc) from None


def _deopt(m: Machine, code: "FunctionCode", point: int, names: dict, sp: int):
    """Resume the reference loop at deopt ``point`` of ``code``'s function,
    with the register file rebuilt from the generated function's locals."""
    label, index = code.points[point]
    regs: list[int | float] = [0] * code.nregs
    for rid in code.vregs:
        value = names.get(f"r{rid}")
        if value is not None:
            regs[rid] = value
    frame = {name: sp + off for name, off in code.offsets.items()}
    # generated code passes the call depth as an argument; the reference
    # loop counts it on the machine
    outer = m._call_depth
    m._call_depth = names["_cd"]
    try:
        return m._exec_blocks(code.func, regs, frame, label, index)
    finally:
        m._call_depth = outer


_HELPERS: dict[str, Any] = {
    "_binop": _binop,
    "_unop": _unop,
    "_div": c_div,
    "_mod": c_mod,
    "_wrap": wrap_int,
    "_Op": Opcode,
    "_trap_load": _trap_load,
    "_trap_store": _trap_store,
    "_untrap": _untrap,
    "_deopt": _deopt,
    "_RLE": ResourceLimitError,
}


# -- the cache -----------------------------------------------------------------
def _module_signature(module: Module) -> tuple:
    """Identity snapshot of the module's executable structure.

    Passes rewrite programs by replacing instruction and function objects,
    so comparing identities (plus classes, to survive id reuse after gc)
    detects stale code.
    """
    parts = []
    for name, func in module.functions.items():
        blocks = tuple(
            (label, tuple((id(i), i.__class__) for i in block.instrs))
            for label, block in func.blocks.items()
        )
        parts.append(
            (name, id(func), func.entry, tuple(map(id, func.local_tags)), blocks)
        )
    return tuple(parts)


class FunctionCode:
    """One generated function plus what its deopt and trap paths need."""

    __slots__ = ("func", "nregs", "vregs", "offsets", "points", "fixes", "source")

    def __init__(self, func: Function) -> None:
        self.func = func
        self.nregs = func.max_vreg_id() + 1
        #: ids of every register the function names
        self.vregs: list[int] = []
        #: local tag name -> offset of its slot in the frame
        self.offsets: dict[str, int] = {}
        #: deopt point -> (block label, instruction index) to resume at
        self.points: list[tuple[str, int]] = []
        #: generated line -> counts to take back when an exception leaves
        #: it (minus its path's prefix), one per ``_FIELDS`` entry
        self.fixes: dict[int, tuple[int, ...]] = {}
        self.source = ""


class CompiledModule:
    """The module's generated code.

    One namespace per profiling mode holds every function as
    ``_F_<name>``, bound to a stub until the function's first call
    generates it; generated functions call each other through these names.
    Addresses are baked from one :class:`MemoryImage`.  The layout is a
    pure function of the module's globals and strings, and every run
    checks it anyway.
    """

    def __init__(self, module: Module, mem: MemoryImage) -> None:
        self.module = module
        self.global_addr = dict(mem.global_addr)
        self.string_addr = dict(mem.string_addr)
        self.signature = _module_signature(module)
        #: global tag names whose address is taken anywhere in the module
        self.global_addressed = frozenset(
            i.tag.name
            for func in module.functions.values()
            for i in func.instructions()
            if i.__class__ is LoadAddr and i.tag.kind is not TagKind.LOCAL
        )
        #: (function name, profiled) -> generated code, filled on first call
        self.code: dict[tuple[str, bool], FunctionCode] = {}
        self.namespaces = (self._namespace(False), self._namespace(True))

    def _namespace(self, profiled: bool) -> dict[str, Any]:
        ns = dict(_HELPERS)
        for name in self.module.functions:
            ns[f"_F_{name}"] = self._stub(name, profiled, ns)
        return ns

    def _stub(self, name: str, profiled: bool, ns: dict) -> Callable:
        def first_call(m, depth, *args):
            func = self.module.functions[name]
            with span("interp.codegen", function=name) as extra:
                code = _Gen(self, func, profiled, ns).build()
                if extra is not None:
                    extra["lines"] = code.source.count("\n") + 1
            self.code[(name, profiled)] = code
            return ns[f"_F_{name}"](m, depth, *args)

        return first_call

    def validate(self, mem: MemoryImage) -> bool:
        return (
            self.global_addr == mem.global_addr
            and self.string_addr == mem.string_addr
            and self.signature == _module_signature(self.module)
        )


def get_compiled(module: Module, mem: MemoryImage) -> CompiledModule:
    """The module's compiled code, rebuilt if the program changed."""
    cm = getattr(module, "_compiled", None)
    if cm is not None and cm.validate(mem):
        return cm
    cm = CompiledModule(module, mem)
    module._compiled = cm
    return cm


def invalidate_decoded(module: Module) -> None:
    """Drop the compiled code (needed only after in-place instruction field
    mutation, which the staleness signature cannot see)."""
    module.__dict__.pop("_compiled", None)


# -- execution -----------------------------------------------------------------
def exec_entry(machine: Machine, func: Function) -> int | float | None:
    """Run ``func`` on ``machine`` under the compiled tier.

    When a trace is active, building the cache and running get their own
    spans (``interp.decode`` notes whether the cache hit); code generation,
    which a function's first call does, gets an ``interp.codegen`` span
    inside ``interp.run``.  When tracing is off this calls straight into
    the generated code, which is never instrumented.
    """
    trace = current_trace()
    if trace is None:
        return _call_entry(machine, get_compiled(machine.module, machine.mem), func)
    cached = getattr(machine.module, "_compiled", None)
    with trace.span("interp.decode") as decode_extra:
        cm = get_compiled(machine.module, machine.mem)
        decode_extra["cached"] = cm is cached
    with trace.span("interp.run", function=func.name) as run_extra:
        result = _call_entry(machine, cm, func)
        run_extra["total_ops"] = machine.counters.total_ops
    return result


def _call_entry(m: Machine, cm: CompiledModule, func: Function):
    ns = cm.namespaces[m.block_visits is not None]
    return ns[f"_F_{func.name}"](m, m._call_depth + 1, *([0] * len(func.params)))


# -- code generation -------------------------------------------------------------
class _Tile:
    """A call-free region whose scalar globals live in locals."""

    __slots__ = ("flag", "blocks", "vars", "stored")

    def __init__(self, flag: str | None, blocks) -> None:
        #: local that is 1 while the tile's globals are in locals; None for
        #: the whole-function tile, whose globals always are
        self.flag = flag
        self.blocks = blocks
        self.vars: dict[str, str] = {}
        #: names the tile stores to (only these are written back)
        self.stored: set[str] = set()


class _Gen:
    """Generates one function's code; see the module docstring for its
    shape."""

    def __init__(
        self, cm: CompiledModule, func: Function, profiled: bool, ns: dict
    ) -> None:
        self.cm = cm
        self.func = func
        self.name = func.name
        self.profiled = profiled
        self.ns = ns
        self.code = FunctionCode(func)
        self.lines: list[str] = []
        self.uid = 0
        self.point_ids: dict[tuple[str, int], int] = {}
        self.bodies = {lbl: _body(b.instrs) for lbl, b in func.blocks.items()}
        instrs = [i for body in self.bodies.values() for i in body]
        functions = cm.module.functions

        offsets, self.frame_size = frame_layout(func.local_tags, func.local_tag_sizes)
        self.code.offsets = offsets

        # frame slots: promoted to a local value, or a local holding the
        # slot's (per-activation) address
        slot_of = {name: i for i, name in enumerate(offsets)}
        addressed = {
            i.tag.name
            for i in instrs
            if i.__class__ is LoadAddr and i.tag.kind is TagKind.LOCAL
        }
        self.slot_var: dict[str, str] = {}
        self.slot_addr: dict[str, str] = {}
        self.stored_slots: set[str] = set()
        for i in instrs:
            cls = i.__class__
            if cls not in _SCALAR_OPS and cls is not LoadAddr:
                continue
            tag = i.tag
            if tag.kind is not TagKind.LOCAL or tag.name not in slot_of:
                continue
            name = tag.name
            if (
                cls is not LoadAddr
                and name not in addressed
                and func.local_tag_sizes.get(name, _ALIGN) <= _ALIGN
            ):
                self.slot_var[name] = f"x{slot_of[name]}"
                if cls is ScalarStore:
                    self.stored_slots.add(name)
            else:
                self.slot_addr[name] = f"_h{slot_of[name]}"

        # tiles: the whole function if it calls nothing, else each maximal
        # call-free loop nest
        def user_call(i) -> bool:
            return i.__class__ is Call and (
                i.callee is None
                or i.callee in functions
                or not is_intrinsic(i.callee)
            )

        forest = find_loops(func)
        call_blocks = {
            lbl for lbl, body in self.bodies.items() if any(map(user_call, body))
        }
        if not call_blocks:
            regions = [(None, set(self.bodies))]
        else:
            regions = [
                (loop, loop.blocks)
                for loop in forest.loops
                if not loop.blocks & call_blocks
                and (loop.parent is None or loop.parent.blocks & call_blocks)
            ]
        self.tiles: list[_Tile] = []
        self.tile_of: dict[str, _Tile] = {}
        for loop, members in regions:
            n = len(self.tiles)
            tile = _Tile(None if loop is None else f"_i{n}", members)
            # block order, not set order, so the names do not follow the
            # hash seed
            for lbl in [b for b in self.bodies if b in members]:
                for i in self.bodies[lbl]:
                    if i.__class__ in _SCALAR_OPS and self._promotable_global(i.tag):
                        name = i.tag.name
                        if name not in tile.vars:
                            tile.vars[name] = f"g{n}_{len(tile.vars)}"
                        if i.__class__ is ScalarStore:
                            tile.stored.add(name)
            if tile.vars:
                self.tiles.append(tile)
                for lbl in members:
                    self.tile_of[lbl] = tile

        vregs = {p.id for p in func.params}
        for i in instrs:
            vregs.update(u.id for u in i.uses())
            if i.dest is not None:
                vregs.add(i.dest.id)
        self.code.vregs = sorted(vregs)

        # straight-line layout: every block reachable from the entry is
        # emitted inline at each edge into it, except the arms of the
        # dispatch loop, hottest first: the entry, the targets of
        # retreating edges (loop headers), and joins whose copies would be
        # too big.  Without the arms the graph is acyclic, so inlining ends
        succs = {
            lbl: [s for s in _successors(body) if s in self.bodies]
            for lbl, body in self.bodies.items()
        }
        self.succs = succs
        post, headers = _dfs(func.entry, succs)
        preds = dict.fromkeys(post, 0)
        for lbl in post:
            for succ in succs[lbl]:
                preds[succ] += 1
        arms = {func.entry} | headers
        #: non-arm block -> IR instructions emitted where it is inlined
        self.size: dict[str, int] = {}
        for lbl in post:  # successors first, retreating edges aside
            if lbl in arms:
                continue
            size = len(self.bodies[lbl]) + sum(
                self.size.get(succ, 0) for succ in succs[lbl]
            )
            if preds[lbl] > 1 and size > _JOIN_LIMIT:
                arms.add(lbl)
            else:
                self.size[lbl] = size
        order = {lbl: n for n, lbl in enumerate(self.bodies)}
        self.arms = sorted(arms, key=lambda lbl: (-forest.depth_of(lbl), order[lbl]))
        self.pc_of = {lbl: n for n, lbl in enumerate(self.arms)}

        # fuel: per inlined block, the largest peak count of any path from
        # its head
        self.reach: dict[str, int] = {}
        for lbl in post:
            if lbl not in arms:
                self.reach[lbl] = self.fuel(lbl, 0)

        # a compare read only by the branch right after it folds into the
        # branch's test
        self.live = compute_liveness(func)
        self.fused: dict[str, BinOp] = {}
        for lbl in post:
            body = self.bodies[lbl]
            if len(body) < 2:
                continue
            cmp, term = body[-2], body[-1]
            if (
                term.__class__ is Branch
                and term.if_true != term.if_false
                and cmp.__class__ is BinOp
                and cmp.opcode in _CMP_SRC
                and cmp.dst.id == term.cond.id
                and cmp.dst.id not in self.live.live_out.get(lbl, ())
            ):
                self.fused[lbl] = cmp
        graph = _def_graph(func)
        self.ints = _int_registers(graph)
        self.nonneg = _nonneg_registers(graph)
        #: registers known to hold an int where emission stands: the proven
        #: ones, plus those trap-tested or computed from known ints earlier
        #: on the path
        self.known: set[int] = set()

        # counters: each distinct mix of the fields other than total_ops
        # gets a visit counter as emission meets it at a path's leaf; the
        # counter-init line and the flushes are filled in after emission
        self.visit_var: dict[tuple[int, ...], str] = {}
        self.flush_at: list[int] = []

    def fuel(self, label: str, start: int) -> int:
        """The largest peak of the reference loop's running count on any
        path from instruction ``start`` of ``label`` to its leaf."""
        run = peak = 0
        for instr in self.bodies[label][start:]:
            if instr.__class__ is Nop:
                # counted, checked, then taken back
                peak = max(peak, run + 1)
                continue
            run += 1
            if instr.__class__ is Call:
                return max(peak, run)
        tail = max(
            (self.reach.get(succ, 0) for succ in self.succs[label]), default=0
        )
        return max(peak, run + tail)

    def _promotable_global(self, tag) -> bool:
        if tag.kind is TagKind.LOCAL or tag.name in self.cm.global_addressed:
            return False
        var = self.cm.module.globals.get(tag.name)
        return (
            var is not None
            and tag.name in self.cm.global_addr
            and var.size <= _ALIGN
        )

    # -- emission helpers ------------------------------------------------------
    def emit(self, ind: int, text: str) -> None:
        self.lines.append(" " * ind + text)

    def bind(self, value: Any) -> str:
        name = f"_k_{self.name}_{self.uid}"
        self.uid += 1
        self.ns[name] = value
        return name

    def raiser(self, message: str) -> str:
        return self.bind(_raiser(message)) + "()"

    def point(self, label: str, index: int) -> int:
        key = (label, index)
        pid = self.point_ids.get(key)
        if pid is None:
            pid = self.point_ids[key] = len(self.code.points)
            self.code.points.append(key)
        return pid

    def flush(self, ind: int) -> None:
        """Add ``_t`` and the visit counters to the counters: one line,
        written once every visit counter is known."""
        self.flush_at.append(len(self.lines))
        self.emit(ind, "")

    def leaf(self, mix: list[int], ind: int) -> None:
        """Count a whole path, whose counts are ``mix``, at its leaf."""
        if mix[0]:
            self.emit(ind, f"_t += {mix[0]}")
        key = tuple(mix[1:])
        if any(key):
            var = self.visit_var.setdefault(key, f"_m{len(self.visit_var)}")
            self.emit(ind, f"{var} += 1")

    def check(self, label: str, start: int, ind: int) -> None:
        """The fuel check of the paths from instruction ``start`` of
        ``label``: deoptimize there if the longest could exhaust the
        budget."""
        self.emit(ind, f"if _t > _lim - {self.fuel(label, start)}:")
        self.emit(ind + 4, f"_d = {self.point(label, start)}")
        self.emit(ind + 4, "break")

    def slot_addr_src(self, name: str) -> str:
        off = self.code.offsets[name]
        return f"_sp + {off}" if off else "_sp"

    def writeback(self, ind: int, at_return: bool = False) -> None:
        """Store every promoted value to memory.  At a return no loop tile
        is live: a return block is never inside a loop."""
        for name in sorted(self.stored_slots):
            self.emit(ind, f"cells[{self.slot_addr_src(name)}] = {self.slot_var[name]}")
        for tile in self.tiles:
            if not tile.stored:
                continue
            inner = ind
            if tile.flag is not None:
                if at_return:
                    continue
                self.emit(ind, f"if {tile.flag}:")
                inner += 4
            self.store_tile(tile, inner)

    def store_tile(self, tile: _Tile, ind: int) -> None:
        for name in sorted(tile.stored):
            self.emit(ind, f"cells[{self.cm.global_addr[name]}] = {tile.vars[name]}")

    def load_tile(self, tile: _Tile, ind: int) -> None:
        for name, var in tile.vars.items():
            self.emit(ind, f"{var} = _g({self.cm.global_addr[name]}, 0)")
        if tile.flag is not None:
            self.emit(ind, f"{tile.flag} = 1")

    # -- the function ------------------------------------------------------------
    def build(self) -> FunctionCode:
        func = self.func
        emit = self.emit
        params = [f"r{p.id}" for p in func.params]
        args = params
        if len(set(params)) != len(params):
            args = [f"_a{n}" for n in range(len(params))]
        emit(0, f"def _F_{self.name}({', '.join(['m', '_cd'] + args)}):")
        emit(4, "if _cd > 2000:")
        emit(8, "raise _RLE('interpreted call stack too deep')")
        size = self.frame_size
        # only a frame needs a ``finally``: it pops the frame
        base = 8 if size else 4
        if size:
            emit(4, "mem = m.mem")
            emit(4, f"_sp = mem.reserve({size})")
            emit(4, "try:")
        if args is not params:
            for param, arg in zip(params, args):
                emit(base, f"{param} = {arg}")
        emit(base, "cells = m.mem.cells")
        emit(base, "_g = cells.get")
        emit(base, "c = m.counters")
        emit(base, "_m = m._max_steps")
        emit(base, "_lim = _m - c.total_ops")
        init = len(self.lines)
        emit(base, "")
        # registers read before any write start at zero, as in the
        # reference loop's register file
        live = self.live.live_in.get(func.entry, frozenset())
        zeros = sorted(live - {p.id for p in func.params})
        for start in range(0, len(zeros), 20):
            emit(base, " = ".join(f"r{rid}" for rid in zeros[start : start + 20]) + " = 0")
        for name, var in self.slot_addr.items():
            emit(base, f"{var} = {self.slot_addr_src(name)}")
        for name, var in self.slot_var.items():
            emit(base, f"{var} = _g({self.slot_addr_src(name)}, 0)")
        for tile in self.tiles:
            if tile.flag is None or func.entry in tile.blocks:
                self.load_tile(tile, base)
            else:
                emit(base, f"{tile.flag} = 0")
        if self.profiled:
            emit(base, "_vb = m.block_visits")
        emit(base, f"_pc = {self.pc_of[func.entry]}")
        emit(base, "try:")
        emit(base + 4, "while True:")
        for pc, lbl in enumerate(self.arms):
            if len(self.arms) == 1:
                emit(base + 8, "if True:")  # a lone arm needs no test
            else:
                emit(base + 8, f"{'if' if pc == 0 else 'elif'} _pc == {pc}:")
            # many paths lead to an arm: only proven facts hold at its head
            self.known = set(self.ints)
            self.block(lbl, base + 12, _NO_COUNTS)
        emit(base, "except BaseException as _e:")
        self.writeback(base + 4)
        self.flush(base + 4)
        emit(base + 4, f"_untrap(c, {self.bind(self.code.fixes)}, _e)")
        emit(base + 4, "raise")
        # reached only through a ``break``: a fuel check's or a missing
        # block's
        self.writeback(base)
        self.flush(base)
        sp = "_sp" if size else "0"
        emit(base, f"return _deopt(m, {self.bind(self.code)}, _d, locals(), {sp})")
        if size:
            emit(4, "finally:")
            emit(8, "mem.stack_ptr = _sp")

        # the visit counters are known now
        self.lines[init] += " = ".join(["_t", *self.visit_var.values()]) + " = 0"
        flush = ["c.total_ops += _t"]
        for n, fld in enumerate(_FIELDS[1:]):
            terms = [
                var if mix[n] == 1 else f"{mix[n]} * {var}"
                for mix, var in self.visit_var.items()
                if mix[n]
            ]
            if terms:
                flush.append(f"c.{fld} += {' + '.join(terms)}")
        for line in self.flush_at:
            self.lines[line] += "; ".join(flush)

        source = self.code.source = "\n".join(self.lines)
        flavour = "+profile" if self.profiled else ""
        exec(compile(source, f"<compiled {self.name}{flavour}>", "exec"), self.ns)
        return self.code

    def block(self, label: str, ind: int, prefix: tuple[int, ...]) -> None:
        """Emit one block and, through its edges, every block inlined after
        it.  ``prefix`` holds the counts of the path up to the block."""
        emit = self.emit
        instrs = self.bodies[label]
        fixes = self.code.fixes
        fused = self.fused.get(label)
        if self.profiled:
            key = repr((self.name, label))
            emit(ind, f"_vb[{key}] = _vb.get({key}, 0) + 1")
        if label in self.pc_of:
            self.check(label, 0, ind)
        mix = list(prefix)
        for idx, instr in enumerate(instrs):
            cls = instr.__class__
            for n in _counted_at(cls):
                mix[n] += 1
            if instr is fused:
                continue
            if cls is Call:
                self.leaf(mix, ind)
                self.call(instr, ind)
                self.check(label, idx + 1, ind)
                mix = list(_NO_COUNTS)
            elif cls is Jump or cls is Branch or cls is Ret:
                self.instr(label, instr, ind, mix)
            else:
                first = len(self.lines) + 1
                self.instr(label, instr, ind, mix)
                fix = tuple(map(neg, mix))
                for line in range(first, len(self.lines) + 1):
                    fixes[line] = fix
            dst = instr.dest
            # a proven register stays known: every definition yields an int
            if dst is not None and dst.id not in self.ints:
                if _yields_int(instr, self.known):
                    self.known.add(dst.id)
                else:
                    self.known.discard(dst.id)
        if not instrs or not instrs[-1].is_terminator():
            emit(
                ind,
                self.raiser(
                    f"block {label} in {self.name} fell through without terminator"
                ),
            )
            fixes[len(self.lines)] = tuple(map(neg, mix))

    def edge(self, src: str, dst: str, ind: int, mix: list[int]) -> None:
        """Control transfer along ``src -> dst``, crossing loop-tile
        boundaries: ``dst`` inline, or, at the path's leaf, a jump to its
        dispatch arm."""
        before, after = self.tile_of.get(src), self.tile_of.get(dst)
        if before is not after:
            if before is not None and before.flag is not None:
                self.store_tile(before, ind)
                self.emit(ind, f"{before.flag} = 0")
            if after is not None and after.flag is not None:
                self.load_tile(after, ind)
        if dst not in self.bodies:
            # no such block: the reference loop raises its lookup error
            self.leaf(mix, ind)
            self.emit(ind, f"_d = {self.point(dst, 0)}")
            self.emit(ind, "break")
        elif dst in self.pc_of:
            self.leaf(mix, ind)
            self.emit(ind, f"_pc = {self.pc_of[dst]}")
            self.emit(ind, "continue")
        else:
            self.block(dst, ind, tuple(mix))

    def tag_ref(self, label: str, tag) -> tuple[str, Any]:
        """``("var", local)`` for a promoted tag, ``("addr", expr)`` for a
        frame slot, ``("const", address)`` for a global or string, and
        ``("err", call)`` for a tag with no storage."""
        name = tag.name
        if tag.kind is TagKind.LOCAL:
            if name in self.slot_var:
                return "var", self.slot_var[name]
            if name in self.slot_addr:
                return "addr", self.slot_addr[name]
            return "err", self.raiser(f"local tag {name} has no frame slot")
        tile = self.tile_of.get(label)
        if tile is not None and name in tile.vars:
            return "var", tile.vars[name]
        addr = self.cm.global_addr.get(name)
        if addr is None:
            addr = self.cm.string_addr.get(name)
        if addr is None:
            return "err", self.raiser(f"tag {name} has no address")
        return "const", addr

    def instr(self, label: str, instr, ind: int, mix: list[int]) -> None:
        emit = self.emit
        cls = instr.__class__
        if cls is BinOp:
            self.binop(instr, ind)
        elif cls is LoadI:
            value = instr.value
            # floats (incl. inf/nan) bind the exact object the reference
            # loop would store
            src = repr(value) if type(value) is int else self.bind(value)
            emit(ind, f"r{instr.dst.id} = {src}")
        elif cls is Mov:
            emit(ind, f"r{instr.dst.id} = r{instr.src.id}")
        elif cls is ScalarLoad or cls is CLoad:
            kind, ref = self.tag_ref(label, instr.tag)
            if kind == "var":
                emit(ind, f"r{instr.dst.id} = {ref}")
            elif kind == "err":
                emit(ind, ref)
            else:
                emit(ind, f"r{instr.dst.id} = _g({ref}, 0)")
        elif cls is ScalarStore:
            kind, ref = self.tag_ref(label, instr.tag)
            if kind == "var":
                emit(ind, f"{ref} = r{instr.src.id}")
            elif kind == "err":
                emit(ind, ref)
            else:
                emit(ind, f"cells[{ref}] = r{instr.src.id}")
        elif cls is MemLoad or cls is MemStore:
            addr = f"r{instr.addr.id}"
            if instr.addr.id not in self.known:
                emit(ind, f"if {addr}.__class__ is not int:")
                trap = "_trap_load" if cls is MemLoad else "_trap_store"
                emit(ind + 4, f"{trap}({addr})")
                self.known.add(instr.addr.id)
            if cls is MemLoad:
                emit(ind, f"r{instr.dst.id} = _g({addr}, 0)")
            else:
                emit(ind, f"cells[{addr}] = r{instr.src.id}")
        elif cls is LoadAddr:
            kind, ref = self.tag_ref(label, instr.tag)
            if kind == "const":
                emit(ind, f"r{instr.dst.id} = {ref + instr.offset!r}")
            elif kind == "addr":
                off = f" + {instr.offset}" if instr.offset else ""
                emit(ind, f"r{instr.dst.id} = {ref}{off}")
            else:
                emit(ind, ref)
        elif cls is UnOp:
            self.unop(instr, ind)
        elif cls is Call:
            self.call(instr, ind)
        elif cls is Jump:
            self.edge(label, instr.target, ind, mix)
        elif cls is Branch:
            taken, other = instr.if_true, instr.if_false
            if taken == other:
                self.edge(label, taken, ind, mix)
                return
            # the smaller side nests, which keeps nesting logarithmic in
            # the size of the code (see the module docstring)
            test = f"r{instr.cond.id}"
            cmp = self.fused.get(label)
            if cmp is not None:
                test = f"r{cmp.lhs.id} {_CMP_SRC[cmp.opcode]} r{cmp.rhs.id}"
            if self.size.get(other, 0) < self.size.get(taken, 0):
                taken, other = other, taken
                test = f"not ({test})" if cmp is not None else f"not {test}"
            emit(ind, f"if {test}:")
            # each arm starts from the facts held at the branch
            facts = set(self.known) if taken in self.size else self.known
            self.edge(label, taken, ind + 4, mix)
            self.known = facts
            self.edge(label, other, ind, mix)
        elif cls is Ret:
            self.leaf(mix, ind)
            self.writeback(ind, at_return=True)
            self.flush(ind)
            value = "None" if instr.value is None else f"r{instr.value.id}"
            emit(ind, f"return {value}")
        elif cls is Nop:
            pass
        else:  # pragma: no cover - defensive
            emit(ind, self.raiser(f"unknown instruction {instr}"))

    def bounds(self, op: Opcode, lhs: int, rhs: int | None = None) -> str | None:
        """The bounds of signed 64-bit range that an int result of ``op``
        can cross, as a ``_CHECKS`` key; None when it never leaves the
        range.  Only operands proven in range narrow the check."""
        ints, nonneg = self.ints, self.nonneg
        if lhs not in ints or (rhs is not None and rhs not in ints):
            return "both"
        if op is Opcode.ADD:
            return "upper" if lhs in nonneg or rhs in nonneg else "both"
        if op is Opcode.SUB:
            if rhs in nonneg:
                return None if lhs in nonneg else "lower"
            return "upper" if lhs in nonneg else "both"
        if op is Opcode.NEG:  # only -(-2**63) leaves the range
            return None if lhs in nonneg else "upper"
        if op is Opcode.MUL or op is Opcode.SHL:
            return "both"
        # bitwise ops, SHR, and DIV/MOD of a non-negative dividend
        return None

    def range_check(self, v: str, ind: int, bounds: str | None) -> None:
        """Wrap ``v`` to signed 64 bits if it crossed ``bounds``."""
        if bounds is not None:
            self.emit(ind, f"if {_CHECKS[bounds].format(v=v)}:")
            self.emit(ind + 4, f"{v} = _wrap({v})")

    def binop(self, instr: BinOp, ind: int) -> None:
        emit = self.emit
        op = instr.opcode
        lid, rid = instr.lhs.id, instr.rhs.id
        dst, lhs, rhs = f"r{instr.dst.id}", f"r{lid}", f"r{rid}"
        generic = f"{dst} = _binop(_Op.{op.name}, {lhs}, {rhs})"
        both_int = f"{lhs}.__class__ is int and {rhs}.__class__ is int"
        # operands known to be ints need no class test: only their int
        # path runs
        proven = lid in self.known and rid in self.known
        fast = ind if proven else ind + 4
        bounds = self.bounds(op, lid, rid)
        if op in _WRAP_SRC:
            emit(ind, f"{dst} = {lhs} {_WRAP_SRC[op]} {rhs}")
            self.range_check(dst, ind, bounds if proven else "float")
        elif op in _CMP_SRC:
            emit(ind, f"{dst} = 1 if {lhs} {_CMP_SRC[op]} {rhs} else 0")
        elif op is Opcode.DIV or op is Opcode.MOD:
            # for non-negative operands C truncation is floor division; the
            # result needs a wrap only for an out-of-range operand
            sym, slow = ("//", "_div") if op is Opcode.DIV else ("%", "_mod")
            if not proven:
                emit(ind, f"if {both_int}:")
            emit(fast, f"if {lhs} >= 0 and {rhs} > 0:")
            emit(fast + 4, f"{dst} = {lhs} {sym} {rhs}")
            self.range_check(dst, fast + 4, bounds)
            emit(fast, "else:")
            emit(fast + 4, f"{dst} = {slow}({lhs}, {rhs})")
            if not proven:
                if op is Opcode.DIV:
                    emit(ind, f"elif {rhs}.__class__ is float and {rhs} != 0.0:")
                    emit(ind + 4, f"{dst} = {lhs} / {rhs}")
                emit(ind, "else:")
                emit(ind + 4, generic)
        elif op in _BIT_SRC or op is Opcode.SHL or op is Opcode.SHR:
            if not proven:
                emit(ind, f"if {both_int}:")
            if op in _BIT_SRC:
                emit(fast, f"{dst} = {lhs} {_BIT_SRC[op]} {rhs}")
            elif op is Opcode.SHR:
                emit(fast, f"{dst} = {lhs} >> ({rhs} & 63)")
            else:
                emit(fast, f"{dst} = {lhs} << ({rhs} & 63)")
            self.range_check(dst, fast, bounds)
            if not proven:
                emit(ind, "else:")
                emit(ind + 4, generic)
        else:
            emit(ind, generic)

    def unop(self, instr: UnOp, ind: int) -> None:
        emit = self.emit
        op = instr.opcode
        sid = instr.src.id
        dst, src = f"r{instr.dst.id}", f"r{sid}"
        proven = sid in self.known
        if op is Opcode.NEG:
            emit(ind, f"{dst} = -{src}")
            self.range_check(dst, ind, self.bounds(op, sid) if proven else "float")
        elif op is Opcode.F2I:
            # int() always makes an int
            emit(ind, f"{dst} = int({src})")
            self.range_check(dst, ind, "both")
        elif op is Opcode.LNOT:
            emit(ind, f"{dst} = 1 if {src} == 0 else 0")
        elif op is Opcode.I2F:
            emit(ind, f"{dst} = float({src})")
        elif op is Opcode.NOT:
            fast = ind if proven else ind + 4
            if not proven:
                emit(ind, f"if {src}.__class__ is int:")
            emit(fast, f"{dst} = ~{src}")
            self.range_check(dst, fast, self.bounds(op, sid))
            if not proven:
                emit(ind, "else:")
                emit(ind + 4, f"{dst} = _unop(_Op.{op.name}, {src})")
        else:
            emit(ind, f"{dst} = _unop(_Op.{op.name}, {src})")

    def call(self, instr: Call, ind: int) -> None:
        """A call ends its path.  Only ``total_ops`` must be exact at the
        boundary; the visit counters commute with the callee's own counts.
        Intrinsics other than ``clock()`` neither read nor spend the budget,
        so they skip the flush."""
        emit = self.emit
        callee = instr.callee
        functions = self.cm.module.functions
        observes = True
        may_be_none = True
        if callee is None:
            expr = self.raiser("indirect calls are not executable in this build")
        elif callee in functions:
            target = functions[callee]
            # extra arguments are dropped, missing ones read as zero
            n = len(target.params)
            args = [f"r{a.id}" for a in instr.args[:n]]
            args += ["0"] * (n - len(args))
            expr = f"_F_{callee}({', '.join(['m', '_cd + 1'] + args)})"
            may_be_none = any(
                i.__class__ is Ret and i.value is None for i in target.instructions()
            )
        elif is_intrinsic(callee):
            observes = callee == "clock"
            parts = ", ".join(f"r{a.id}" for a in instr.args)
            if len(instr.args) == 1:
                parts += ","
            expr = f"m._exec_intrinsic({callee!r}, ({parts}), {instr.site_id})"
        else:
            expr = self.raiser(f"call to unknown function {callee!r}")
        if observes:
            emit(ind, "c.total_ops += _t")
            emit(ind, "_t = 0")
        if instr.dst is None:
            emit(ind, expr)
        elif may_be_none:
            emit(ind, f"v = {expr}")
            emit(ind, f"r{instr.dst.id} = 0 if v is None else v")
        else:
            emit(ind, f"r{instr.dst.id} = {expr}")
        if observes:
            emit(ind, "_lim = _m - c.total_ops")
