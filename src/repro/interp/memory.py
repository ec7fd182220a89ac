"""The interpreter's memory model.

A flat byte-addressed space backed by a dictionary.  Each scalar value
(int, float, pointer) is stored *whole* at its base address; the workloads
never type-pun, so a load at an address returns exactly what was stored
there.  Unwritten addresses read as zero (C static initialization for
globals; conveniently-zeroed stack and heap otherwise — the front end
still emits explicit initialization for register-resident locals).

Address space layout::

    0x1000_0000  globals
    0x2000_0000  string literals (read-only)
    0x3000_0000  stack (grows upward, one frame slab per activation)
    0x4000_0000  heap (bump allocator, one block per allocation)

The layout leaves gaps so wild pointer arithmetic faults loudly instead of
silently landing in a different region.
"""

from __future__ import annotations

from ..errors import InterpError
from ..ir.module import Module
from ..ir.tags import Tag

GLOBAL_BASE = 0x1000_0000
STRING_BASE = 0x2000_0000
STACK_BASE = 0x3000_0000
HEAP_BASE = 0x4000_0000
STACK_LIMIT = HEAP_BASE - 0x1000

_ALIGN = 8


def _align(value: int) -> int:
    return (value + _ALIGN - 1) // _ALIGN * _ALIGN


def frame_layout(tags: list[Tag], sizes: dict[str, int]) -> tuple[dict[str, int], int]:
    """One activation's frame: ``tag name -> offset`` from the frame base,
    and the frame's size.  Sizes default to one word.  The reference loop
    and the compiled tier both lay frames out with this function."""
    offsets: dict[str, int] = {}
    size = 0
    for tag in tags:
        offsets[tag.name] = size
        size = _align(size + max(sizes.get(tag.name, _ALIGN), 1))
    return offsets, size


class MemoryImage:
    """The memory of one program run."""

    def __init__(self, module: Module) -> None:
        self.cells: dict[int, int | float] = {}
        self.global_addr: dict[str, int] = {}
        self.string_addr: dict[str, int] = {}
        self.stack_ptr = STACK_BASE
        self.heap_ptr = HEAP_BASE
        self._heap_sizes: dict[int, int] = {}
        self._layout_globals(module)
        self._layout_strings(module)

    # -- static data -------------------------------------------------------
    def _layout_globals(self, module: Module) -> None:
        addr = GLOBAL_BASE
        for var in module.globals.values():
            self.global_addr[var.name] = addr
            for offset, value in var.init.items():
                self.cells[addr + offset] = value
            addr = _align(addr + max(var.size, 1))

    def _layout_strings(self, module: Module) -> None:
        addr = STRING_BASE
        for lit in module.strings.values():
            self.string_addr[lit.tag.name] = addr
            data = lit.text.encode("utf-8", errors="replace")
            for i, byte in enumerate(data):
                self.cells[addr + i] = byte
            self.cells[addr + len(data)] = 0
            addr = _align(addr + len(data) + 1)

    # -- stack frames -----------------------------------------------------
    def reserve(self, size: int) -> int:
        """Push a frame of ``size`` bytes; returns its base address."""
        base = self.stack_ptr
        if base + size > STACK_LIMIT:
            raise InterpError("interpreted program overflowed its stack")
        self.stack_ptr = base + size
        return base

    def push_frame(self, tags: list[Tag], sizes: dict[str, int]) -> dict[str, int]:
        """Push one activation's frame; returns ``tag name -> address``."""
        offsets, size = frame_layout(tags, sizes)
        base = self.reserve(size)
        return {name: base + off for name, off in offsets.items()}

    def pop_frame(self, saved_stack_ptr: int) -> None:
        self.stack_ptr = saved_stack_ptr

    # -- heap --------------------------------------------------------------
    def allocate(self, size: int) -> int:
        addr = self.heap_ptr
        self._heap_sizes[addr] = size
        self.heap_ptr = _align(self.heap_ptr + max(size, 1))
        return addr

    def free(self, addr: int) -> None:
        # a bump allocator never reuses memory; free only validates
        if addr != 0 and addr not in self._heap_sizes:
            raise InterpError(f"free of non-heap address {addr:#x}")

    # -- access --------------------------------------------------------------
    def load(self, addr: int) -> int | float:
        return self.cells.get(addr, 0)

    def store(self, addr: int, value: int | float) -> None:
        self.cells[addr] = value

    def read_c_string(self, addr: int, limit: int = 1 << 20) -> str:
        chars: list[str] = []
        for i in range(limit):
            cell = self.cells.get(addr + i, 0)
            if not isinstance(cell, int):
                raise InterpError(f"non-byte cell in string at {addr + i:#x}")
            if cell == 0:
                return "".join(chars)
            chars.append(chr(cell & 0xFF))
        raise InterpError("unterminated string")
