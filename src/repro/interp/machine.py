"""The instrumented IL interpreter.

Executes a module deterministically and counts every operation, load, and
store it performs — the measurement apparatus behind the paper's
Figures 5-7.  Semantics follow C on an LP64 machine: 64-bit two's
complement integer arithmetic, truncating integer division, IEEE doubles.

The machine is also the *substitute for the paper's hardware testbed*: the
paper instrumented compiled binaries; we instrument IL execution, which
measures the same three quantities exactly (and deterministically).

Two execution engines share this measurement contract:

``compiled`` (the default)
    The compiled tier in :mod:`repro.interp.compiled`: on its first call
    each IR function becomes one generated Python function, with virtual
    registers and never-address-taken scalars held in Python locals and
    counters batched per path.  Observable behavior — counters,
    output, exit code, ``clock()`` values, traps, ``max_steps``
    exhaustion, and ``block_visits`` under profiling — is bit-identical
    to the reference loop (enforced by the differential oracle in
    ``tests/interp/test_engine_equiv.py``).  Its one deopt target is the
    reference loop, resumed through :meth:`Machine._exec_blocks` at a
    dispatch arm's head or just after a call whenever the fuel left may
    not cover every path from there; the reference loop then stops
    exactly where it must, or finishes the run.

``simple``
    The reference semantics: the per-instruction dispatch loop in
    :meth:`Machine._exec_blocks` below.  Kept deliberately direct so it
    stays auditable against the IL specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..diag.log import get_logger
from ..errors import InterpError, InterpTrap, ResourceLimitError
from ..intrinsics import ALLOCATORS, is_intrinsic
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
from .counters import Counters
from .memory import MemoryImage

_log = get_logger(__name__)

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63


def wrap_int(value: int) -> int:
    """Reduce to signed 64-bit two's complement."""
    value &= _INT_MASK
    if value & _INT_SIGN:
        value -= 1 << 64
    return value


def c_div(a: int, b: int) -> int:
    """C integer division: truncation toward zero."""
    if b == 0:
        raise InterpTrap("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap_int(q)


def c_mod(a: int, b: int) -> int:
    return wrap_int(a - c_div(a, b) * b)


class _ProgramExit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


@dataclass
class RunResult:
    """Outcome of one interpreted run."""

    exit_code: int
    counters: Counters
    output: str
    #: return value of main (same as exit_code unless exit() was called)
    returned: int | float | None = None
    #: ``(function, block label) -> execution count``; ``None`` unless the
    #: run was profiled (``MachineOptions.profile``) — see
    #: :mod:`repro.diag.profile` for the per-loop fold-up
    block_visits: dict[tuple[str, str], int] | None = None


@dataclass
class MachineOptions:
    max_steps: int = 500_000_000
    #: count per-block executions for per-loop attribution; the default
    #: (off) path allocates nothing and does no per-instruction work
    profile: bool = False
    #: execution engine: ``"compiled"`` (one generated Python function per
    #: IR function — the default) or ``"simple"`` (the per-instruction
    #: reference loop)
    engine: str = "compiled"


class Machine:
    """Interprets one module.  Create a fresh Machine per run."""

    def __init__(self, module: Module, options: MachineOptions | None = None) -> None:
        self.module = module
        self.options = options or MachineOptions()
        self.mem = MemoryImage(module)
        self.counters = Counters()
        #: per-(function, block) execution counts; None when profiling is
        #: off so the default path never allocates
        self.block_visits: dict[tuple[str, str], int] | None = (
            {} if self.options.profile else None
        )
        self.output: list[str] = []
        self._rand_state = 1  # C's rand() before any srand()
        self._call_depth = 0
        self._heap_site_of_addr: dict[int, int] = {}
        # hot-path bindings: the execution engines read these every call
        # instead of chasing option/module attribute chains
        self._max_steps = self.options.max_steps
        self._functions = module.functions

    # -- public API --------------------------------------------------------
    def run(self, entry: str = "main") -> RunResult:
        func = self.module.functions.get(entry)
        if func is None:
            raise InterpError(f"no entry function {entry!r}")
        engine_name = self.options.engine
        if engine_name not in ("compiled", "simple"):
            raise InterpError(f"unknown interpreter engine {engine_name!r}")
        # the interpreter recurses once per interpreted call; make room in
        # the Python stack for the machine's own depth limit, restoring
        # the caller's limit once the run is over
        import sys

        old_limit = sys.getrecursionlimit()
        bumped = old_limit < 40_000
        if bumped:
            sys.setrecursionlimit(40_000)
        try:
            try:
                if engine_name == "compiled":
                    from . import compiled

                    value = compiled.exec_entry(self, func)
                else:
                    value = self._exec_function(func, [])
                code = int(value) if isinstance(value, (int, float)) else 0
            except _ProgramExit as exit_:
                value = None
                code = exit_.code
        finally:
            if bumped:
                sys.setrecursionlimit(old_limit)
        result = RunResult(
            exit_code=wrap_int(code) & 0xFF if code >= 0 else code,
            counters=self.counters,
            output="".join(self.output),
            returned=value,
            block_visits=self.block_visits,
        )
        _log.debug(
            "run finished: exit=%d %s", result.exit_code, result.counters
        )
        return result

    # -- execution core ------------------------------------------------------
    def _exec_function(
        self, func: Function, args: list[int | float]
    ) -> int | float | None:
        self._call_depth += 1
        if self._call_depth > 2000:
            raise ResourceLimitError("interpreted call stack too deep")
        saved_sp = self.mem.stack_ptr
        frame_addrs = self.mem.push_frame(func.local_tags, func.local_tag_sizes)

        nregs = func.max_vreg_id() + 1
        regs: list[int | float] = [0] * nregs
        for reg, value in zip(func.params, args):
            regs[reg.id] = value
        try:
            return self._exec_blocks(func, regs, frame_addrs, func.entry)
        finally:
            self.mem.pop_frame(saved_sp)
            self._call_depth -= 1

    def _exec_blocks(
        self,
        func: Function,
        regs: list[int | float],
        frame_addrs: dict[str, int],
        label: str,
        start: int | None = None,
    ) -> int | float | None:
        """Run ``func``'s blocks from ``label`` until it returns.

        With ``start`` the run *resumes* inside an activation whose frame
        and register file already exist: the block at ``label`` was already
        entered (its visit counted) and execution continues at instruction
        ``start``.  This is how the compiled tier deoptimizes.
        """
        counters = self.counters
        cells = self.mem.cells
        max_steps = self.options.max_steps
        result: int | float | None = None
        # Profiling attributes whole blocks, never single instructions: a
        # block always executes all of its instructions once entered, so
        # ``visits x static mix`` reconstructs exact dynamic counts (see
        # repro.diag.profile).  The off path is one None test per block.
        visits = self.block_visits
        func_name = func.name

        while True:
            block = func.blocks[label]
            if start is None:
                instrs = block.instrs
                if visits is not None:
                    key = (func_name, label)
                    visits[key] = visits.get(key, 0) + 1
            else:
                instrs = block.instrs[start:]
                start = None
            next_label: str | None = None
            for instr in instrs:
                counters.total_ops += 1
                if counters.total_ops > max_steps:
                    raise ResourceLimitError(
                        f"exceeded {max_steps} executed operations"
                    )
                cls = type(instr)
                if cls is BinOp:
                    regs[instr.dst.id] = _binop(
                        instr.opcode, regs[instr.lhs.id], regs[instr.rhs.id]
                    )
                elif cls is LoadI:
                    regs[instr.dst.id] = instr.value
                elif cls is Mov:
                    counters.copies += 1
                    regs[instr.dst.id] = regs[instr.src.id]
                elif cls is ScalarLoad:
                    counters.loads += 1
                    counters.scalar_loads += 1
                    addr = self._tag_addr(instr.tag, frame_addrs)
                    regs[instr.dst.id] = cells.get(addr, 0)
                elif cls is ScalarStore:
                    counters.stores += 1
                    counters.scalar_stores += 1
                    addr = self._tag_addr(instr.tag, frame_addrs)
                    cells[addr] = regs[instr.src.id]
                elif cls is MemLoad:
                    counters.loads += 1
                    counters.general_loads += 1
                    addr = regs[instr.addr.id]
                    if not isinstance(addr, int):
                        raise InterpTrap(f"load through non-integer address {addr!r}")
                    regs[instr.dst.id] = cells.get(addr, 0)
                elif cls is MemStore:
                    counters.stores += 1
                    counters.general_stores += 1
                    addr = regs[instr.addr.id]
                    if not isinstance(addr, int):
                        raise InterpTrap(f"store through non-integer address {addr!r}")
                    cells[addr] = regs[instr.src.id]
                elif cls is CLoad:
                    counters.loads += 1
                    counters.scalar_loads += 1
                    addr = self._tag_addr(instr.tag, frame_addrs)
                    regs[instr.dst.id] = cells.get(addr, 0)
                elif cls is UnOp:
                    regs[instr.dst.id] = _unop(instr.opcode, regs[instr.src.id])
                elif cls is LoadAddr:
                    regs[instr.dst.id] = (
                        self._tag_addr(instr.tag, frame_addrs) + instr.offset
                    )
                elif cls is Jump:
                    next_label = instr.target
                    break
                elif cls is Branch:
                    counters.branches += 1
                    next_label = (
                        instr.if_true if regs[instr.cond.id] != 0 else instr.if_false
                    )
                    break
                elif cls is Ret:
                    if instr.value is not None:
                        result = regs[instr.value.id]
                    return result
                elif cls is Call:
                    counters.calls += 1
                    value = self._exec_call(instr, regs)
                    if instr.dst is not None:
                        regs[instr.dst.id] = value if value is not None else 0
                elif cls is Nop:
                    counters.total_ops -= 1  # structural, never "executed"
                else:  # pragma: no cover - defensive
                    raise InterpError(f"unknown instruction {instr}")
            if next_label is None:
                raise InterpError(
                    f"block {label} in {func.name} fell through without terminator"
                )
            label = next_label

    # -- helpers -----------------------------------------------------------
    def _tag_addr(self, tag, frame_addrs: dict[str, int]) -> int:
        if tag.kind is TagKind.LOCAL:
            addr = frame_addrs.get(tag.name)
            if addr is None:
                raise InterpError(f"local tag {tag.name} has no frame slot")
            return addr
        addr = self.mem.global_addr.get(tag.name)
        if addr is not None:
            return addr
        addr = self.mem.string_addr.get(tag.name)
        if addr is not None:
            return addr
        raise InterpError(f"tag {tag.name} has no address")

    def _exec_call(self, instr: Call, regs: list[int | float]) -> int | float | None:
        name = instr.callee
        if name is None:
            raise InterpError("indirect calls are not executable in this build")
        args = [regs[a.id] for a in instr.args]
        target = self._functions.get(name)
        if target is not None:
            return self._exec_function(target, args)
        if is_intrinsic(name):
            return self._exec_intrinsic(name, args, instr.site_id)
        raise InterpError(f"call to unknown function {name!r}")

    # -- intrinsics ---------------------------------------------------------
    def _exec_intrinsic(
        self, name: str, args: list[int | float] | tuple, site_id: int = -1
    ) -> int | float | None:
        mem = self.mem
        if name == "printf":
            return self._printf(args)
        if name == "putchar":
            ch = int(args[0]) & 0xFF
            self.output.append(chr(ch))
            return int(args[0])
        if name == "puts":
            text = mem.read_c_string(int(args[0]))
            self.output.append(text + "\n")
            return 0
        if name in ALLOCATORS:
            if name == "calloc":
                size = int(args[0]) * int(args[1])
            else:
                size = int(args[0])
            addr = mem.allocate(max(size, 1))
            self._heap_site_of_addr[addr] = site_id
            return addr
        if name == "free":
            mem.free(int(args[0]))
            return None
        if name == "sqrt":
            return math.sqrt(float(args[0]))
        if name == "fabs":
            return abs(float(args[0]))
        if name == "sin":
            return math.sin(float(args[0]))
        if name == "cos":
            return math.cos(float(args[0]))
        if name == "exp":
            return math.exp(float(args[0]))
        if name == "log":
            return math.log(float(args[0]))
        if name == "pow":
            return math.pow(float(args[0]), float(args[1]))
        if name == "floor":
            return math.floor(float(args[0]))
        if name == "abs" or name == "labs":
            return wrap_int(abs(int(args[0])))
        if name == "rand":
            self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
            return (self._rand_state >> 16) & 0x7FFF
        if name == "srand":
            self._rand_state = int(args[0]) & 0x7FFFFFFF
            return None
        if name == "memset":
            base, value, count = int(args[0]), int(args[1]), int(args[2])
            if count > 0:
                byte = value & 0xFF if value else 0
                mem.cells.update(dict.fromkeys(range(base, base + count), byte))
            return base
        if name == "memcpy":
            dst, src, count = int(args[0]), int(args[1]), int(args[2])
            if count > 0:
                cells = mem.cells
                if src < dst < src + count:
                    # forward-overlapping copy: the byte-at-a-time loop
                    # re-reads cells this same call wrote (C's memcpy UB;
                    # preserved exactly for determinism)
                    get = cells.get
                    for i in range(count):
                        cells[dst + i] = get(src + i, 0)
                else:
                    get = cells.get
                    values = [get(src + i, 0) for i in range(count)]
                    cells.update(zip(range(dst, dst + count), values))
            return dst
        if name == "strlen":
            return len(mem.read_c_string(int(args[0])))
        if name == "strcmp":
            a = mem.read_c_string(int(args[0]))
            b = mem.read_c_string(int(args[1]))
            return (a > b) - (a < b)
        if name == "strcpy":
            dst, src = int(args[0]), int(args[1])
            text = mem.read_c_string(src)
            for i, ch in enumerate(text):
                mem.cells[dst + i] = ord(ch)
            mem.cells[dst + len(text)] = 0
            return dst
        if name == "exit":
            raise _ProgramExit(int(args[0]))
        if name == "clock":
            return self.counters.total_ops
        raise InterpError(f"intrinsic {name!r} is not implemented")

    def _printf(self, args: list[int | float]) -> int:
        fmt = self.mem.read_c_string(int(args[0]))
        out: list[str] = []
        arg_iter = iter(args[1:])
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            # scan the conversion spec: %[flags][width][.prec][length]conv
            j = i + 1
            while j < len(fmt) and fmt[j] in "-+ 0123456789.#lh":
                j += 1
            if j >= len(fmt):
                out.append("%")
                break
            conv = fmt[j]
            spec = fmt[i:j + 1]
            if conv == "%":
                out.append("%")
            elif conv in "dioux":
                value = int(next(arg_iter, 0))
                # strip every length modifier: Python's % has no l/h, and
                # our ints are 64-bit whole values regardless of width
                out.append(_c_format(spec.replace("l", "").replace("h", ""), value))
            elif conv in "feg":
                value = float(next(arg_iter, 0.0))
                out.append(_c_format(spec, value))
            elif conv == "c":
                out.append(chr(int(next(arg_iter, 0)) & 0xFF))
            elif conv == "s":
                out.append(self.mem.read_c_string(int(next(arg_iter, 0))))
            else:
                raise InterpError(f"printf conversion %{conv} unsupported")
            i = j + 1
        text = "".join(out)
        self.output.append(text)
        return len(text)


def _c_format(spec: str, value: int | float) -> str:
    try:
        return spec % value
    except (TypeError, ValueError) as exc:
        raise InterpError(f"bad printf spec {spec!r}: {exc}") from exc


def _binop(op: Opcode, a: int | float, b: int | float) -> int | float:
    both_int = isinstance(a, int) and isinstance(b, int)
    if op is Opcode.ADD:
        return wrap_int(a + b) if both_int else a + b
    if op is Opcode.SUB:
        return wrap_int(a - b) if both_int else a - b
    if op is Opcode.MUL:
        return wrap_int(a * b) if both_int else a * b
    if op is Opcode.DIV:
        if both_int:
            return c_div(a, b)
        if b == 0:
            raise InterpTrap("floating division by zero")
        return a / b
    if op is Opcode.MOD:
        if not both_int:
            raise InterpTrap("% applied to floating operand")
        return c_mod(a, b)
    if op is Opcode.AND:
        return wrap_int(int(a) & int(b))
    if op is Opcode.OR:
        return wrap_int(int(a) | int(b))
    if op is Opcode.XOR:
        return wrap_int(int(a) ^ int(b))
    if op is Opcode.SHL:
        return wrap_int(int(a) << (int(b) & 63))
    if op is Opcode.SHR:
        return wrap_int(int(a) >> (int(b) & 63))
    if op is Opcode.CMP_LT:
        return int(a < b)
    if op is Opcode.CMP_LE:
        return int(a <= b)
    if op is Opcode.CMP_GT:
        return int(a > b)
    if op is Opcode.CMP_GE:
        return int(a >= b)
    if op is Opcode.CMP_EQ:
        return int(a == b)
    if op is Opcode.CMP_NE:
        return int(a != b)
    raise InterpError(f"unknown binary opcode {op}")


def _unop(op: Opcode, a: int | float) -> int | float:
    if op is Opcode.NEG:
        return wrap_int(-a) if isinstance(a, int) else -a
    if op is Opcode.NOT:
        return wrap_int(~int(a))
    if op is Opcode.LNOT:
        return int(a == 0)
    if op is Opcode.I2F:
        return float(a)
    if op is Opcode.F2I:
        try:
            return wrap_int(int(a))
        except (ValueError, OverflowError) as exc:
            raise f2i_trap(exc) from None
    raise InterpError(f"unknown unary opcode {op}")


def f2i_trap(exc: ValueError | OverflowError) -> InterpTrap:
    """The trap for converting NaN or an infinity to an integer, which C
    leaves undefined; ``exc`` is the error ``int()`` raised."""
    return InterpTrap(f"float-to-int conversion: {exc}")


def run_module(
    module: Module,
    entry: str = "main",
    options: MachineOptions | None = None,
) -> RunResult:
    """Convenience: interpret ``module`` from ``entry`` and return the result."""
    return Machine(module, options).run(entry)
