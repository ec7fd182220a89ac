"""Parser for the textual IL form emitted by :mod:`repro.ir.printer`.

Round-tripping (`parse_module(format_module(m))`) is supported for every
construct the printer emits, which makes the textual form usable for
golden tests and for writing IL test inputs by hand::

    func main() {
    B0: ; entry
        %r0 = loadi 1
        %g1 = sload [g]
        %r2 = add %r0, %g1
        sstore %r2 -> [g]
        ret %r2
    }

Tags referenced in instructions are resolved against the module's
declared globals/strings/locals; unknown names become GLOBAL scalar tags
(convenient for hand-written snippets).
"""

from __future__ import annotations

import re

from ..errors import IRError
from .function import Function
from .instructions import (
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
    VReg,
)
from .module import GlobalVar, Module
from .opcodes import BINARY_OPS, UNARY_OPS
from .tags import Tag, TagKind, TagSet

_REG_RE = re.compile(r"%([A-Za-z_][A-Za-z_0-9]*?)?(\d+)$")
_LABEL_LINE_RE = re.compile(r"^([A-Za-z_][\w.]*):(?:\s*;.*)?$")
_GLOBAL_RE = re.compile(
    r"^global (const )?([\w.]+) size=(\d+)(?: init=(\{.*\}))?$"
)
_STRING_RE = re.compile(r"^string (@\w+) = (.+)$")
_FUNC_RE = re.compile(r"^func ([\w.]+)\((.*)\) \{$")
_CALL_RE = re.compile(
    r"^(?:(%\S+) = )?call ([\w.*%]+)\((.*?)\) mod=(\[.*?\]) ref=(\[.*?\])$"
)

_BINARY_BY_NAME = {op.value: op for op in BINARY_OPS}
_UNARY_BY_NAME = {op.value: op for op in UNARY_OPS}


class _TagEnv:
    """Resolves tag names against module-declared tags."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.known: dict[str, Tag] = {}
        self._index_module()

    def _index_module(self) -> None:
        for tag in self.module.memory_tags():
            self.known[tag.name] = tag
        for lit in self.module.strings.values():
            self.known[lit.tag.name] = lit.tag

    def add(self, tag: Tag) -> None:
        self.known[tag.name] = tag

    def resolve(self, name: str) -> Tag:
        tag = self.known.get(name)
        if tag is None:
            tag = Tag(name, TagKind.GLOBAL)
            self.known[name] = tag
        return tag

    def tag_set(self, text: str) -> TagSet:
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise IRError(f"bad tag set syntax: {text!r}")
        inner = text[1:-1].strip()
        if inner == "*":
            return TagSet.universe()
        if not inner:
            return TagSet.empty()
        return TagSet.from_iterable(
            self.resolve(name) for name in inner.split()
        )


def _parse_reg(text: str) -> VReg:
    match = _REG_RE.match(text.strip().rstrip(","))
    if not match:
        raise IRError(f"bad register syntax: {text!r}")
    hint, num = match.groups()
    hint = hint or ""
    if hint == "r":
        hint = ""
    return VReg(int(num), hint)


def _parse_value(text: str):
    import ast

    value = ast.literal_eval(text)
    if not isinstance(value, (int, float)):
        raise IRError(f"bad immediate {text!r}")
    return value


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse the printer's textual form back into a module."""
    module = Module(name)
    env = _TagEnv(module)
    lines = [line.rstrip() for line in text.splitlines()]
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line.startswith("; module "):
            module.name = line[len("; module "):].strip()
            continue
        if not line or line.startswith(";"):
            continue
        m = _GLOBAL_RE.match(line)
        if m:
            const, gname, size, init_text = m.groups()
            tag = Tag(gname, TagKind.GLOBAL, is_scalar=int(size) <= 8)
            var = GlobalVar(
                tag=tag,
                size=int(size),
                elem_size=min(int(size), 8),
                is_const=bool(const),
            )
            if init_text:
                import ast

                var.init = dict(ast.literal_eval(init_text))
            module.add_global(var)
            env.add(tag)
            continue
        m = _STRING_RE.match(line)
        if m:
            import ast

            lit = module.add_string(ast.literal_eval(m.group(2)))
            env.add(lit.tag)
            continue
        m = _FUNC_RE.match(line)
        if m:
            i = _parse_function(module, env, m, lines, i)
            continue
        raise IRError(f"unparsable module line: {line!r}")
    return module


def _parse_function(module, env, header_match, lines, i) -> int:
    fname, params_text = header_match.groups()
    params = [
        _parse_reg(p) for p in params_text.split(",") if p.strip()
    ]
    func = Function(fname, params=params)
    module.add_function(func)

    current = None
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        i += 1
        if line == "}":
            func.reserve_vreg_ids(func.max_vreg_id())
            return i
        if not line:
            continue
        if line.startswith("; local tags:"):
            for tag_name in line.split(":", 1)[1].split():
                tag = Tag(
                    tag_name, TagKind.LOCAL,
                    owner=fname if tag_name.startswith(f"{fname}.") else "",
                )
                func.local_tags.append(tag)
                func.local_tag_sizes.setdefault(tag.name, 8)
                env.add(tag)
            continue
        m = _LABEL_LINE_RE.match(line)
        if m and not raw.startswith("    "):
            label = m.group(1)
            current = func.new_block(label=label)
            if "; entry" in line:
                func.entry = label
            continue
        if current is None:
            raise IRError(f"instruction before any label: {line!r}")
        current.append(_parse_instr(line, env))
    raise IRError(f"unterminated function {fname}")


def _parse_instr(line: str, env: _TagEnv):
    # comments after instructions
    m = _CALL_RE.match(line)
    if m:
        dst_text, callee, args_text, mod_text, ref_text = m.groups()
        dst = _parse_reg(dst_text) if dst_text else None
        callee_reg = None
        callee_name: str | None = callee
        if callee.startswith("*"):
            callee_name = None
            callee_reg = _parse_reg(callee[1:])
        args = [
            _parse_reg(a) for a in args_text.split(",") if a.strip()
        ]
        return Call(
            dst,
            callee_name,
            args,
            mod=env.tag_set(mod_text),
            ref=env.tag_set(ref_text),
            callee_reg=callee_reg,
        )

    if line == "nop":
        return Nop()
    if line == "ret":
        return Ret()
    if line.startswith("ret "):
        return Ret(_parse_reg(line[4:]))
    if line.startswith("jmp "):
        return Jump(line[4:].strip())
    if line.startswith("cbr "):
        m = re.match(r"^cbr (\S+) \? (\S+) : (\S+)$", line)
        if not m:
            raise IRError(f"bad cbr: {line!r}")
        return Branch(_parse_reg(m.group(1)), m.group(2), m.group(3))
    if line.startswith("sstore "):
        m = re.match(r"^sstore (\S+) -> \[([\w.@]+)\]$", line)
        if not m:
            raise IRError(f"bad sstore: {line!r}")
        return ScalarStore(_parse_reg(m.group(1)), env.resolve(m.group(2)))
    if line.startswith("store "):
        m = re.match(r"^store (\S+) -> \[(\S+)\] (\[.*\])$", line)
        if not m:
            raise IRError(f"bad store: {line!r}")
        return MemStore(
            _parse_reg(m.group(1)),
            _parse_reg(m.group(2)),
            env.tag_set(m.group(3)),
        )

    m = re.match(r"^(\S+) = (.+)$", line)
    if not m:
        raise IRError(f"unparsable instruction: {line!r}")
    dst = _parse_reg(m.group(1))
    rhs = m.group(2).strip()

    if rhs.startswith("loadi "):
        return LoadI(dst, _parse_value(rhs[6:]))
    if rhs.startswith("mov "):
        return Mov(dst, _parse_reg(rhs[4:]))
    if rhs.startswith("la "):
        m2 = re.match(r"^la ([\w.@]+)(?: \+ (-?\d+))?$", rhs)
        if not m2:
            raise IRError(f"bad la: {rhs!r}")
        offset = int(m2.group(2)) if m2.group(2) else 0
        return LoadAddr(dst, env.resolve(m2.group(1)), offset)
    if rhs.startswith("sload "):
        m2 = re.match(r"^sload \[([\w.@]+)\]$", rhs)
        if not m2:
            raise IRError(f"bad sload: {rhs!r}")
        return ScalarLoad(dst, env.resolve(m2.group(1)))
    if rhs.startswith("cload "):
        m2 = re.match(r"^cload \[([\w.@]+)\]$", rhs)
        if not m2:
            raise IRError(f"bad cload: {rhs!r}")
        return CLoad(dst, env.resolve(m2.group(1)))
    if rhs.startswith("load "):
        m2 = re.match(r"^load \[(\S+)\] (\[.*\])$", rhs)
        if not m2:
            raise IRError(f"bad load: {rhs!r}")
        return MemLoad(dst, _parse_reg(m2.group(1)), env.tag_set(m2.group(2)))
    parts = rhs.split(None, 1)
    opname = parts[0]
    if opname in _BINARY_BY_NAME:
        operands = [p.strip() for p in parts[1].split(",")]
        if len(operands) != 2:
            raise IRError(f"bad binary operands: {rhs!r}")
        return BinOp(
            _BINARY_BY_NAME[opname],
            dst,
            _parse_reg(operands[0]),
            _parse_reg(operands[1]),
        )
    if opname in _UNARY_BY_NAME:
        return UnOp(_UNARY_BY_NAME[opname], dst, _parse_reg(parts[1]))
    raise IRError(f"unknown instruction: {line!r}")
