"""Lowering from the pycparser AST to tagged IL.

This is the front end the paper assumes: it decides, per variable, whether
the value lives in a virtual register or in memory, emits the Table 1
memory-opcode hierarchy with the *best information it has* in each tag
field, and seeds every call with conservative MOD/REF summaries that the
interprocedural analyses later shrink.

Storage policy (section 2 of the paper):

* scalars that are local to one function and whose address is never taken
  live in virtual registers — no memory traffic at all;
* globals, address-taken locals, arrays, and structs live in memory and
  are accessed through tagged loads and stores;
* direct references to a named scalar use ``sload``/``sstore`` (explicit
  references); pointer dereferences use general ``load``/``store`` with the
  universal tag set.

Register promotion exists to fix the second bullet, loop by loop.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from pycparser import c_ast

from ..ctype_model import (
    ArrayType,
    CHAR,
    CType,
    DOUBLE,
    FunctionType,
    INT,
    LONG,
    PointerType,
    SHORT,
    StructType,
    UINT,
    ULONG,
    VOID,
    build_struct,
    decay,
    usual_arithmetic,
)
from ..errors import FrontendError, InterpTrap, UnsupportedFeatureError
from ..interp.machine import _binop, _unop, wrap_int
from ..intrinsics import ALLOCATORS, INTRINSICS, is_intrinsic
from ..ir.builder import IRBuilder
from ..ir.cfg import remove_unreachable_blocks
from ..ir.function import BasicBlock, Function
from ..ir.instructions import Call, LoadI, VReg
from ..ir.module import GlobalVar, Module
from ..ir.opcodes import Opcode
from ..ir.tags import Tag, TagKind, TagSet
from .symbols import EnumConst, FuncSymbol, ScopeStack, VarSymbol


@dataclass
class Value:
    """An rvalue: a register plus its static C type."""

    reg: VReg
    ctype: CType


class LValue:
    """Base class for assignable locations."""

    ctype: CType


@dataclass
class RegLValue(LValue):
    """A variable resident in a virtual register."""

    sym: VarSymbol

    @property
    def ctype(self) -> CType:  # type: ignore[override]
        return self.sym.ctype


@dataclass
class ScalarLValue(LValue):
    """A named scalar in memory — accessed with sload/sstore."""

    tag: Tag
    ctype: CType


@dataclass
class MemLValue(LValue):
    """A computed address — accessed with general load/store."""

    addr: VReg
    tags: TagSet
    ctype: CType


_BINOPS = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "<": Opcode.CMP_LT,
    "<=": Opcode.CMP_LE,
    ">": Opcode.CMP_GT,
    ">=": Opcode.CMP_GE,
    "==": Opcode.CMP_EQ,
    "!=": Opcode.CMP_NE,
}

_UNOPS = {"-": Opcode.NEG, "~": Opcode.NOT, "!": Opcode.LNOT}

_COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}

#: the operators C defines on integer operands only (C11 6.5.3.3, 6.5.5,
#: 6.5.7, 6.5.10-12), compound assignments included
_INTEGER_ONLY = frozenset(
    {Opcode.MOD, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
     Opcode.NOT}
)

_ASSIGN_OPS = {
    "=": None,
    "+=": Opcode.ADD,
    "-=": Opcode.SUB,
    "*=": Opcode.MUL,
    "/=": Opcode.DIV,
    "%=": Opcode.MOD,
    "&=": Opcode.AND,
    "|=": Opcode.OR,
    "^=": Opcode.XOR,
    "<<=": Opcode.SHL,
    ">>=": Opcode.SHR,
}


@dataclass
class LoweredFunction:
    """One function body's lowering plus the module-wide state it wrote,
    so :meth:`ModuleLowerer.replay` can repeat it without the AST."""

    #: never handed out: :meth:`~ModuleLowerer.replay` adds a copy
    function: Function
    #: string literals it interned, in order
    strings: tuple[str, ...]
    #: call-site ids it consumed
    call_sites: int
    #: the sites it named heap tags for, in order
    heap_sites: tuple[int, ...]
    address_taken: frozenset[Tag]
    #: ``("function", name, FunctionType)`` for a local prototype of a new
    #: name, ``("struct", name, StructType)`` for a struct it defined
    symbols: tuple[tuple[str, str, CType], ...]


class ModuleLowerer:
    """Lowers a full translation unit."""

    def __init__(self, module_name: str = "module") -> None:
        self.module = Module(module_name)
        self.scopes = ScopeStack()
        self.typedefs: dict[str, CType] = {}
        self.structs: dict[str, StructType] = {}
        self.functions: dict[str, FuncSymbol] = {}
        #: the symbols :meth:`lower_recorded` and :meth:`replay` added
        self.body_symbols: tuple[tuple[str, str, CType], ...] = ()

    # -- entry point -----------------------------------------------------
    def lower(self, ast: c_ast.FileAST) -> Module:
        for funcdef in self.declare(ast.ext):
            FunctionLowerer(self, funcdef).lower()
        return self.module

    def declare(self, exts: list[c_ast.Node]) -> list[c_ast.FuncDef]:
        """Pass 1: types, globals, and every function signature.  Returns
        the function definitions, whose bodies pass 2 lowers in order."""
        funcdefs: list[c_ast.FuncDef] = []
        for ext in exts:
            if isinstance(ext, c_ast.Typedef):
                self.typedefs[ext.name] = self.resolve_type(ext.type)
            elif isinstance(ext, c_ast.Decl):
                self._lower_global_decl(ext)
            elif isinstance(ext, c_ast.FuncDef):
                self._register_signature(ext)
                funcdefs.append(ext)
            else:
                raise UnsupportedFeatureError(
                    f"unsupported top-level construct {type(ext).__name__}",
                    getattr(ext, "coord", None),
                )
        return funcdefs

    # -- pass 2 through a memo -------------------------------------------
    def body_state(self) -> tuple:
        """What lowering a body reads besides its own text and pass 1's
        results: the strings interned so far, the next call-site id, and
        the symbols earlier bodies added."""
        module = self.module
        return (tuple(module.strings), module.call_sites, self.body_symbols)

    def lower_recorded(self, funcdef: c_ast.FuncDef) -> LoweredFunction:
        """Lower one body, recording what :meth:`replay` must repeat."""
        module = self.module
        strings = len(module.strings)
        sites = module.call_sites
        heap_sites = len(module.heap_tags)
        taken = set(module.address_taken)
        functions = len(self.functions)
        structs = dict(self.structs)
        func = FunctionLowerer(self, funcdef).lower()
        # a body only appends functions, but may redefine a struct
        symbols = tuple(
            ("function", name, sym.ftype)
            for name, sym in list(self.functions.items())[functions:]
        ) + tuple(
            ("struct", name, struct)
            for name, struct in self.structs.items()
            if structs.get(name) is not struct
        )
        self.body_symbols += symbols
        return LoweredFunction(
            function=func.copy(),
            strings=tuple(module.strings)[strings:],
            call_sites=module.call_sites - sites,
            heap_sites=tuple(module.heap_tags)[heap_sites:],
            address_taken=frozenset(module.address_taken - taken),
            symbols=symbols,
        )

    def replay(self, lowered: LoweredFunction) -> None:
        """Add a copy of an already-lowered body and repeat its writes."""
        module = self.module
        for text in lowered.strings:
            module.add_string(text)
        for _ in range(lowered.call_sites):
            module.new_call_site()
        for site in lowered.heap_sites:
            module.heap_tag_for_site(site)
        module.address_taken |= lowered.address_taken
        for kind, name, ctype in lowered.symbols:
            if kind == "function":
                self.functions[name] = FuncSymbol(name, ctype)
            else:
                self.structs[name] = ctype
        self.body_symbols += lowered.symbols
        module.add_function(lowered.function.copy())

    # -- signatures --------------------------------------------------------
    def _register_signature(self, funcdef: c_ast.FuncDef) -> None:
        name = funcdef.decl.name
        ftype = self.resolve_type(funcdef.decl.type)
        if not isinstance(ftype, FunctionType):
            raise FrontendError(f"{name} is not a function", funcdef.coord)
        existing = self.functions.get(name)
        if existing is not None and existing.defined:
            raise FrontendError(f"redefinition of {name}", funcdef.coord)
        self.functions[name] = FuncSymbol(name, ftype, defined=True)

    def declared_type(self, decl: c_ast.Decl) -> CType | None:
        """The type of the object ``decl`` declares, at file or block
        scope; ``None`` for a prototype, which is registered here, and for
        a bare ``struct S {...};`` or ``enum {...};``, whose types were
        registered during resolution.  ``T a[] = {...}`` takes the list's
        length."""
        ctype = self.resolve_type(decl.type)
        if isinstance(ctype, FunctionType):
            self.functions.setdefault(decl.name, FuncSymbol(decl.name, ctype))
            return None
        if decl.name is None:
            return None
        if isinstance(ctype, ArrayType) and not ctype.length \
                and isinstance(decl.init, c_ast.InitList):
            return ArrayType(elem=ctype.elem, length=len(decl.init.exprs))
        return ctype

    def _lower_global_decl(self, decl: c_ast.Decl) -> None:
        ctype = self.declared_type(decl)
        if ctype is None:
            return
        is_const = "const" in (decl.quals or [])
        scalar = ctype.is_scalar()
        tag = Tag(decl.name, TagKind.GLOBAL, is_scalar=scalar)
        var = GlobalVar(
            tag=tag,
            size=max(ctype.size, 1),
            elem_size=_element_size(ctype),
            is_const=is_const,
        )
        if decl.init is not None:
            for offset, slot_type, expr in _init_slots(ctype, decl.init):
                var.init[offset] = _convert(expr, self.const_eval(expr), slot_type)
        self.module.add_global(var)
        if not scalar:
            # aggregates decay to pointers whenever referenced, so their
            # address is considered taken
            self.module.address_taken.add(tag)
        self.scopes.declare(VarSymbol(decl.name, ctype, tag=tag, is_global=True))

    # -- constant expressions ------------------------------------------------
    def const_eval(self, node: c_ast.Node) -> int | float:
        if isinstance(node, c_ast.Constant):
            return _parse_constant(node)
        if isinstance(node, c_ast.ID):
            sym = self.scopes.lookup(node.name)
            if isinstance(sym, EnumConst):
                return sym.value
            raise FrontendError(
                f"{node.name!r} is not a compile-time constant", node.coord
            )
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "sizeof":
                return self.sizeof(node)
            inner = self.const_eval(node.expr)
            if node.op == "+":
                return inner
            if node.op not in _UNOPS:
                raise UnsupportedFeatureError(
                    f"constant unary {node.op!r}", node.coord
                )
            op = _UNOPS[node.op]
            _check_operands(op, node.op, node.coord, isinstance(inner, int))
            return _fold(_unop, node, op, inner)
        if isinstance(node, c_ast.BinaryOp):
            lhs = self.const_eval(node.left)
            rhs = self.const_eval(node.right)
            if node.op not in _BINOPS:
                raise UnsupportedFeatureError(
                    f"constant binary {node.op!r}", node.coord
                )
            op = _BINOPS[node.op]
            _check_operands(
                op, node.op, node.coord, isinstance(lhs, int), isinstance(rhs, int)
            )
            return _fold(_binop, node, op, lhs, rhs)
        if isinstance(node, c_ast.Cast):
            target = self.resolve_type(node.to_type.type)
            return _convert(node, self.const_eval(node.expr), target)
        raise UnsupportedFeatureError(
            f"unsupported constant expression {type(node).__name__}", node.coord
        )

    def const_int(self, node: c_ast.Node, what: str) -> int:
        """An integer constant expression: an array size, an enumerator
        value or a ``case`` label."""
        value = self.const_eval(node)
        if not isinstance(value, int):
            raise FrontendError(f"{what} is not an integer constant", node.coord)
        return value

    def sizeof(self, node: c_ast.UnaryOp) -> int:
        """``sizeof`` a type name or a named variable."""
        operand = node.expr
        ctype = None
        if isinstance(operand, c_ast.Typename):
            ctype = self.resolve_type(operand.type)
        elif isinstance(operand, c_ast.ID):
            sym = self.scopes.lookup(operand.name)
            if isinstance(sym, VarSymbol):
                ctype = sym.ctype
            elif sym is None and operand.name in self.functions:
                ctype = self.functions[operand.name].ftype
        if isinstance(ctype, FunctionType):
            raise FrontendError("sizeof applied to a function", node.coord)
        if ctype is None:
            raise UnsupportedFeatureError("unsupported sizeof operand", node.coord)
        return ctype.size

    # -- type resolution ---------------------------------------------------
    def resolve_type(self, node: c_ast.Node) -> CType:
        if isinstance(node, c_ast.TypeDecl):
            return self._resolve_base(node.type)
        if isinstance(node, c_ast.PtrDecl):
            return PointerType(self.resolve_type(node.type))
        if isinstance(node, c_ast.ArrayDecl):
            elem = self.resolve_type(node.type)
            length = 0
            if node.dim is not None:
                length = self.const_int(node.dim, "array size")
                if length < 0:
                    raise FrontendError("array size is negative", node.dim.coord)
            return ArrayType(elem=elem, length=length)
        if isinstance(node, c_ast.FuncDecl):
            ret = self.resolve_type(node.type)
            params: list[CType] = []
            varargs = False
            if node.args is not None:
                for param in node.args.params:
                    if isinstance(param, c_ast.EllipsisParam):
                        varargs = True
                        continue
                    if isinstance(param, c_ast.ID):
                        raise UnsupportedFeatureError(
                            "K&R-style parameter lists are not supported",
                            param.coord,
                        )
                    ptype = self.resolve_type(param.type)
                    if ptype.is_void():
                        continue  # f(void)
                    params.append(decay(ptype))
            return FunctionType(ret=ret, params=tuple(params), varargs=varargs)
        if isinstance(node, (c_ast.Struct, c_ast.Union, c_ast.Enum,
                             c_ast.IdentifierType)):
            return self._resolve_base(node)
        raise UnsupportedFeatureError(
            f"unsupported declarator {type(node).__name__}",
            getattr(node, "coord", None),
        )

    def _resolve_base(self, node: c_ast.Node) -> CType:
        if isinstance(node, c_ast.IdentifierType):
            return self._named_type(node.names, node.coord)
        if isinstance(node, c_ast.Struct):
            return self._resolve_struct(node)
        if isinstance(node, c_ast.Union):
            raise UnsupportedFeatureError("unions are not supported", node.coord)
        if isinstance(node, c_ast.Enum):
            self._register_enum(node)
            return INT
        raise UnsupportedFeatureError(
            f"unsupported type {type(node).__name__}", getattr(node, "coord", None)
        )

    def _named_type(self, names: list[str], coord: object) -> CType:
        joined = " ".join(names)
        if len(names) == 1 and names[0] in self.typedefs:
            return self.typedefs[names[0]]
        unsigned = "unsigned" in names
        if "double" in names or "float" in names:
            return DOUBLE
        if "void" in names:
            return VOID
        if "char" in names:
            return CHAR
        if "short" in names:
            return SHORT
        if "long" in names:
            return ULONG if unsigned else LONG
        if "int" in names or unsigned or "signed" in names:
            return UINT if unsigned else INT
        raise UnsupportedFeatureError(f"unknown type {joined!r}", coord)

    def _resolve_struct(self, node: c_ast.Struct) -> StructType:
        name = node.name or f"@anon{len(self.structs)}"
        if node.decls is None:
            if name in self.structs:
                return self.structs[name]
            raise FrontendError(f"undefined struct {name}", node.coord)
        members: list[tuple[str, CType]] = []
        for decl in node.decls:
            members.append((decl.name, self.resolve_type(decl.type)))
        struct = build_struct(name, members)
        self.structs[name] = struct
        return struct

    def _register_enum(self, node: c_ast.Enum) -> None:
        if node.values is None:
            return
        next_value = 0
        for enumerator in node.values.enumerators:
            if enumerator.value is not None:
                next_value = self.const_int(enumerator.value, "enumerator value")
            if self.scopes.lookup(enumerator.name) is None:
                self.scopes.declare(EnumConst(enumerator.name, next_value))
            next_value += 1


class _AddressTakenScanner(c_ast.NodeVisitor):
    """Collects names ``x`` that occur as ``&x`` (possibly ``&x.f`` or
    ``&x[i]``) anywhere inside one function body."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_UnaryOp(self, node: c_ast.UnaryOp) -> None:
        if node.op == "&":
            base = node.expr
            while isinstance(base, (c_ast.ArrayRef, c_ast.StructRef)):
                base = base.name
            if isinstance(base, c_ast.ID):
                self.names.add(base.name)
        self.generic_visit(node)


class FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, parent: ModuleLowerer, funcdef: c_ast.FuncDef) -> None:
        self.parent = parent
        self.module = parent.module
        self.scopes = parent.scopes
        self.funcdef = funcdef
        self.name = funcdef.decl.name
        self.ftype = parent.functions[self.name].ftype

        scanner = _AddressTakenScanner()
        scanner.visit(funcdef)
        self.addr_taken_names = scanner.names

        self.func = Function(self.name)
        self.b = IRBuilder(self.func)
        self.break_stack: list[str] = []
        self.continue_stack: list[str] = []
        self._local_tag_count: dict[str, int] = {}

    # -- top level --------------------------------------------------------
    def lower(self) -> Function:
        self.scopes.push()
        self.b.start_block("B")
        self._declare_params()
        self.module.add_function(self.func)
        self.stmt(self.funcdef.body)
        if not self.b.is_terminated():
            self._emit_default_return()
        self.scopes.pop()
        remove_unreachable_blocks(self.func)
        return self.func

    def _declare_params(self) -> None:
        decl = self.funcdef.decl.type  # FuncDecl
        param_decls = []
        if decl.args is not None:
            param_decls = [
                p for p in decl.args.params
                if not isinstance(p, c_ast.EllipsisParam)
            ]
        param_regs: list[VReg] = []
        pending: list[tuple[c_ast.Decl, CType, VReg]] = []
        for pdecl in param_decls:
            ptype = decay(self.parent.resolve_type(pdecl.type))
            if ptype.is_void():
                continue
            reg = self.func.new_vreg(pdecl.name or "arg")
            param_regs.append(reg)
            if pdecl.name is not None:
                pending.append((pdecl, ptype, reg))
        self.func.params = tuple(param_regs)
        self.func.reserve_vreg_ids(max((r.id for r in param_regs), default=-1))
        for pdecl, ptype, reg in pending:
            if pdecl.name in self.addr_taken_names:
                tag = self._new_local_tag(pdecl.name, ptype)
                self.b.sstore(reg, tag)
                self.scopes.declare(VarSymbol(pdecl.name, ptype, tag=tag))
            else:
                self.scopes.declare(VarSymbol(pdecl.name, ptype, reg=reg))

    def _emit_default_return(self) -> None:
        if self.ftype.ret.is_void():
            self.b.ret()
        else:
            zero = self.b.loadi(0.0 if self.ftype.ret.is_float() else 0)
            self.b.ret(zero)

    def _new_local_tag(self, name: str, ctype: CType) -> Tag:
        count = self._local_tag_count.get(name, 0)
        self._local_tag_count[name] = count + 1
        suffix = f".{count}" if count else ""
        tag = Tag(
            f"{self.name}.{name}{suffix}",
            TagKind.LOCAL,
            is_scalar=ctype.is_scalar(),
            owner=self.name,
        )
        self.func.local_tags.append(tag)
        self.func.local_tag_sizes[tag.name] = max(ctype.size, 1)
        # every memory-resident local is reachable through pointers:
        # scalars only become memory-resident when their address is taken,
        # and aggregates decay whenever they are referenced
        self.module.address_taken.add(tag)
        return tag

    # ==================================================================
    # statements
    # ==================================================================
    def stmt(self, node: c_ast.Node | None) -> None:
        if node is None:
            return
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            # expression statements arrive as raw expression nodes
            self.expr(node, want_value=False)
            return
        method(node)

    def _fresh_if_terminated(self) -> None:
        """After a return/break, further statements are unreachable; park
        them in a fresh block that dead-block removal deletes."""
        if self.b.is_terminated():
            self.b.start_block("D")

    def _stmt_Compound(self, node: c_ast.Compound) -> None:
        self.scopes.push()
        for item in node.block_items or []:
            self._fresh_if_terminated()
            self.stmt(item)
        self.scopes.pop()

    def _stmt_Decl(self, node: c_ast.Decl) -> None:
        ctype = self.parent.declared_type(node)
        if ctype is None:
            return
        if ctype.is_scalar() and node.name not in self.addr_taken_names:
            sym = VarSymbol(node.name, ctype, reg=self.func.new_vreg(node.name))
        else:
            sym = VarSymbol(node.name, ctype, tag=self._new_local_tag(node.name, ctype))
        self.scopes.declare(sym)
        if node.init is None:
            if sym.reg is not None:
                # a register always holds a defined value
                self.b.emit(LoadI(sym.reg, 0.0 if ctype.is_float() else 0))
            return
        for offset, slot_type, expr in _init_slots(ctype, node.init):
            value = self.convert(self.rvalue(expr), slot_type)
            if sym.reg is not None:
                self.b.mov(value.reg, dst=sym.reg)
            elif ctype.is_scalar():
                self.b.sstore(value.reg, sym.tag)
            else:
                addr = self.b.la(sym.tag, offset)
                self.b.store(value.reg, addr, TagSet.of(sym.tag))

    def _stmt_DeclList(self, node: c_ast.DeclList) -> None:
        for decl in node.decls:
            self.stmt(decl)

    def _stmt_If(self, node: c_ast.If) -> None:
        cond = self.rvalue(node.cond)
        then_block = self.b.new_block("T")
        else_block = self.b.new_block("F") if node.iffalse is not None else None
        join = self.b.new_block("J")
        # NB: an empty BasicBlock is falsy (len == 0), so `else_block or
        # join` would silently skip the else branch — compare to None
        false_target = else_block if else_block is not None else join
        self.b.cbr(cond.reg, then_block, false_target)

        self.b.set_block(then_block)
        self.stmt(node.iftrue)
        if not self.b.is_terminated():
            self.b.jmp(join)

        if else_block is not None:
            self.b.set_block(else_block)
            self.stmt(node.iffalse)
            if not self.b.is_terminated():
                self.b.jmp(join)

        self.b.set_block(join)

    def _stmt_While(self, node: c_ast.While) -> None:
        header = self.b.new_block("W")
        body = self.b.new_block("Wb")
        exit_ = self.b.new_block("We")
        self.b.jmp(header)

        self.b.set_block(header)
        cond = self.rvalue(node.cond)
        self.b.cbr(cond.reg, body, exit_)
        self._loop_body(node.stmt, body, exit_, header)
        self.b.set_block(exit_)

    def _stmt_DoWhile(self, node: c_ast.DoWhile) -> None:
        body = self.b.new_block("D")
        latch = self.b.new_block("Dc")
        exit_ = self.b.new_block("De")
        self.b.jmp(body)
        self._loop_body(node.stmt, body, exit_, latch)

        self.b.set_block(latch)
        cond = self.rvalue(node.cond)
        self.b.cbr(cond.reg, body, exit_)
        self.b.set_block(exit_)

    def _stmt_For(self, node: c_ast.For) -> None:
        self.scopes.push()
        if node.init is not None:
            self.stmt(node.init)
        header = self.b.new_block("L")
        body = self.b.new_block("Lb")
        step = self.b.new_block("Ls")
        exit_ = self.b.new_block("Le")
        self.b.jmp(header)

        self.b.set_block(header)
        if node.cond is not None:
            cond = self.rvalue(node.cond)
            self.b.cbr(cond.reg, body, exit_)
        else:
            self.b.jmp(body)
        self._loop_body(node.stmt, body, exit_, step)

        self.b.set_block(step)
        if node.next is not None:
            self.expr(node.next, want_value=False)
        self.b.jmp(header)

        self.b.set_block(exit_)
        self.scopes.pop()

    def _loop_body(
        self,
        stmt: c_ast.Node | None,
        body: BasicBlock,
        exit_: BasicBlock,
        next_: BasicBlock,
    ) -> None:
        """Lower a loop's body into ``body``: ``break`` goes to ``exit_``,
        ``continue`` and the end of the body to ``next_``."""
        self.break_stack.append(exit_.label)
        self.continue_stack.append(next_.label)
        self.b.set_block(body)
        self.stmt(stmt)
        if not self.b.is_terminated():
            self.b.jmp(next_)
        self.break_stack.pop()
        self.continue_stack.pop()

    def _stmt_Return(self, node: c_ast.Return) -> None:
        if node.expr is None:
            self.b.ret()
            return
        value = self.rvalue(node.expr)
        if not self.ftype.ret.is_void():
            value = self.convert(value, self.ftype.ret)
        self.b.ret(value.reg)

    def _stmt_Break(self, node: c_ast.Break) -> None:
        if not self.break_stack:
            raise FrontendError("break outside loop/switch", node.coord)
        self.b.jmp(self.break_stack[-1])

    def _stmt_Continue(self, node: c_ast.Continue) -> None:
        if not self.continue_stack:
            raise FrontendError("continue outside loop", node.coord)
        self.b.jmp(self.continue_stack[-1])

    def _stmt_Switch(self, node: c_ast.Switch) -> None:
        selector = self.rvalue(node.cond)
        exit_ = self.b.new_block("Se")

        items = node.stmt.block_items if isinstance(node.stmt, c_ast.Compound) else [node.stmt]
        items = items or []
        cases: list[tuple[c_ast.Node | None, object]] = []  # (case expr, block)
        for item in items:
            if isinstance(item, c_ast.Case):
                cases.append((item.expr, self.b.new_block("C")))
            elif isinstance(item, c_ast.Default):
                cases.append((None, self.b.new_block("Cd")))
            else:
                raise UnsupportedFeatureError(
                    "switch bodies must be a flat list of case/default labels",
                    getattr(item, "coord", None),
                )

        # dispatch chain
        default_block = next((blk for expr, blk in cases if expr is None), None)
        for expr, block in cases:
            if expr is None:
                continue
            const = self.b.loadi(self.parent.const_int(expr, "case label"))
            test = self.b.binop(Opcode.CMP_EQ, selector.reg, const)
            next_test = self.b.new_block("Sn")
            self.b.cbr(test, block, next_test)
            self.b.set_block(next_test)
        self.b.jmp(default_block if default_block is not None else exit_)

        # bodies with fallthrough
        self.break_stack.append(exit_.label)
        for idx, ((_, block), item) in enumerate(zip(cases, items)):
            self.b.set_block(block)
            stmts = item.stmts or []
            for sub in stmts:
                self._fresh_if_terminated()
                self.stmt(sub)
            if not self.b.is_terminated():
                if idx + 1 < len(cases):
                    self.b.jmp(cases[idx + 1][1])
                else:
                    self.b.jmp(exit_)
        self.break_stack.pop()
        self.b.set_block(exit_)

    def _stmt_EmptyStatement(self, node: c_ast.EmptyStatement) -> None:
        return

    # ==================================================================
    # expressions
    # ==================================================================
    def expr(self, node: c_ast.Node, want_value: bool = True) -> Value | None:
        """Lower an expression; when ``want_value`` is false the result may
        be discarded (expression statements)."""
        method = getattr(self, f"_expr_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedFeatureError(
                f"unsupported expression {type(node).__name__}",
                getattr(node, "coord", None),
            )
        return method(node, want_value)

    def rvalue(self, node: c_ast.Node) -> Value:
        value = self.expr(node, want_value=True)
        if value is None:
            raise FrontendError(
                "void value used where a value is required",
                getattr(node, "coord", None),
            )
        return value

    # -- conversions ---------------------------------------------------------
    def convert(self, value: Value, target: CType) -> Value:
        op = _conversion(value.ctype, target)
        reg = value.reg if op is None else self.b.unop(op, value.reg)
        return Value(reg, target if target.is_scalar() else value.ctype)

    # -- lvalues ----------------------------------------------------------
    def lvalue(self, node: c_ast.Node) -> LValue:
        if isinstance(node, c_ast.ID):
            sym = self.scopes.lookup_var(node.name, node.coord)
            if sym.in_register:
                return RegLValue(sym)
            assert sym.tag is not None
            if sym.ctype.is_scalar():
                return ScalarLValue(sym.tag, sym.ctype)
            addr = self.b.la(sym.tag)
            return MemLValue(addr, TagSet.of(sym.tag), sym.ctype)
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            pointer = self.rvalue(node.expr)
            if not pointer.ctype.is_pointer():
                raise FrontendError("dereference of non-pointer", node.coord)
            pointee = pointer.ctype.pointee
            return MemLValue(pointer.reg, TagSet.universe(), pointee)
        if isinstance(node, c_ast.ArrayRef):
            return self._array_lvalue(node)
        if isinstance(node, c_ast.StructRef):
            return self._struct_lvalue(node)
        raise UnsupportedFeatureError(
            f"unsupported lvalue {type(node).__name__}",
            getattr(node, "coord", None),
        )

    def _array_lvalue(self, node: c_ast.ArrayRef) -> MemLValue:
        base = self.rvalue(node.name)
        index = self.rvalue(node.subscript)
        if not base.ctype.is_pointer():
            raise FrontendError("subscript of non-pointer", node.coord)
        if not index.ctype.is_integer():
            raise FrontendError("array subscript is not an integer", node.coord)
        addr = self._pointer_offset(base, index, negate=False).reg
        return MemLValue(addr, self._address_tags(node.name), base.ctype.pointee)

    def _struct_lvalue(self, node: c_ast.StructRef) -> MemLValue:
        if node.type == ".":
            base_lv = self.lvalue(node.name)
            if not isinstance(base_lv, MemLValue):
                raise FrontendError("member access on register value", node.coord)
            struct = base_lv.ctype
            base_addr = base_lv.addr
            tags = base_lv.tags
        else:  # "->"
            pointer = self.rvalue(node.name)
            if not pointer.ctype.is_pointer():
                raise FrontendError("-> on non-pointer", node.coord)
            struct = pointer.ctype.pointee
            base_addr = pointer.reg
            tags = TagSet.universe()
        if not isinstance(struct, StructType):
            raise FrontendError("member access on non-struct", node.coord)
        field_ = struct.field_named(node.field.name)
        if field_.offset:
            off = self.b.loadi(field_.offset)
            base_addr = self.b.add(base_addr, off)
        return MemLValue(base_addr, tags, field_.ctype)

    def _address_tags(self, base_node: c_ast.Node) -> TagSet:
        """Best static knowledge of what an address expression refers to.

        Direct references to a named array/struct produce a singleton tag
        set (the front end *knows* the object); anything reached through a
        pointer value is universal until analysis shrinks it.
        """
        node = base_node
        while isinstance(node, (c_ast.ArrayRef, c_ast.StructRef)):
            if isinstance(node, c_ast.StructRef) and node.type == "->":
                return TagSet.universe()
            node = node.name
        if isinstance(node, c_ast.ID):
            sym = self.scopes.lookup(node.name)
            if isinstance(sym, VarSymbol) and sym.tag is not None \
                    and not sym.ctype.is_pointer():
                return TagSet.of(sym.tag)
        return TagSet.universe()

    # -- lvalue read/write --------------------------------------------------
    def read_lvalue(self, lv: LValue) -> Value:
        if isinstance(lv, RegLValue):
            assert lv.sym.reg is not None
            return Value(lv.sym.reg, lv.sym.ctype)
        if isinstance(lv, ScalarLValue):
            reg = self.b.sload(lv.tag)
            return Value(reg, lv.ctype)
        assert isinstance(lv, MemLValue)
        if lv.ctype.is_array() or lv.ctype.is_struct():
            # aggregates decay: the "value" is the address itself
            return Value(lv.addr, PointerType(
                lv.ctype.elem if lv.ctype.is_array() else lv.ctype
            ))
        reg = self.b.load(lv.addr, lv.tags)
        return Value(reg, lv.ctype)

    def write_lvalue(self, lv: LValue, value: Value) -> Value:
        converted = self.convert(value, lv.ctype)
        if isinstance(lv, RegLValue):
            assert lv.sym.reg is not None
            self.b.mov(converted.reg, dst=lv.sym.reg)
            return Value(lv.sym.reg, lv.ctype)
        if isinstance(lv, ScalarLValue):
            self.b.sstore(converted.reg, lv.tag)
            return Value(converted.reg, lv.ctype)
        assert isinstance(lv, MemLValue)
        self.b.store(converted.reg, lv.addr, lv.tags)
        return Value(converted.reg, lv.ctype)

    # -- expression node handlers -------------------------------------------
    def _expr_Constant(self, node: c_ast.Constant, want_value: bool) -> Value:
        if node.type == "string":
            lit = self.module.add_string(_decode_literal(node))
            reg = self.b.la(lit.tag)
            return Value(reg, PointerType(CHAR))
        value = _parse_constant(node)
        ctype = DOUBLE if isinstance(value, float) else INT
        reg = self.b.loadi(value)
        return Value(reg, ctype)

    def _expr_ID(self, node: c_ast.ID, want_value: bool) -> Value:
        sym = self.scopes.lookup(node.name)
        if isinstance(sym, EnumConst):
            reg = self.b.loadi(sym.value)
            return Value(reg, INT)
        if sym is None:
            if node.name in self.parent.functions or is_intrinsic(node.name):
                raise UnsupportedFeatureError(
                    "function pointers require explicit & (unsupported here)",
                    node.coord,
                )
            raise FrontendError(f"undeclared identifier {node.name!r}", node.coord)
        return self.read_lvalue(self.lvalue(node))

    def _expr_ArrayRef(self, node: c_ast.ArrayRef, want_value: bool) -> Value:
        return self.read_lvalue(self.lvalue(node))

    def _expr_StructRef(self, node: c_ast.StructRef, want_value: bool) -> Value:
        return self.read_lvalue(self.lvalue(node))

    def _expr_Assignment(self, node: c_ast.Assignment, want_value: bool) -> Value:
        if node.op not in _ASSIGN_OPS:
            raise UnsupportedFeatureError(
                f"assignment operator {node.op!r}", node.coord
            )
        op = _ASSIGN_OPS[node.op]
        lv = self.lvalue(node.lvalue)
        if op is None:
            value = self.rvalue(node.rvalue)
            return self.write_lvalue(lv, value)
        current = self.read_lvalue(lv)
        rhs = self.rvalue(node.rvalue)
        combined = self._arith(op, node.op.rstrip("="), current, rhs, node.coord)
        return self.write_lvalue(lv, combined)

    def _expr_UnaryOp(self, node: c_ast.UnaryOp, want_value: bool) -> Value:
        op = node.op
        if op == "&":
            return self._address_of(node.expr)
        if op == "*":
            return self.read_lvalue(self.lvalue(node))
        if op == "sizeof":
            return Value(self.b.loadi(self.parent.sizeof(node)), LONG)
        if op in {"++", "--", "p++", "p--"}:
            return self._inc_dec(node, op)
        operand = self.rvalue(node.expr)
        if op == "+":
            return operand
        if op not in _UNOPS:
            raise UnsupportedFeatureError(f"unary {op!r}", node.coord)
        _check_operands(_UNOPS[op], op, node.coord, operand.ctype.is_integer())
        reg = self.b.unop(_UNOPS[op], operand.reg)
        return Value(reg, INT if op == "!" else operand.ctype)

    def _inc_dec(self, node: c_ast.UnaryOp, op: str) -> Value:
        lv = self.lvalue(node.expr)
        current = self.read_lvalue(lv)
        one_value: int | float = 1
        step = 1
        if current.ctype.is_pointer():
            step = max(current.ctype.pointee.size, 1)
        elif current.ctype.is_float():
            one_value = 1.0
        one = self.b.loadi(one_value if step == 1 else step)
        arith = Opcode.ADD if "+" in op else Opcode.SUB
        if op.startswith("p"):
            old = self.b.mov(current.reg)  # preserve the pre-update value
            updated = self.b.binop(arith, current.reg, one)
            self.write_lvalue(lv, Value(updated, current.ctype))
            return Value(old, current.ctype)
        updated = self.b.binop(arith, current.reg, one)
        written = self.write_lvalue(lv, Value(updated, current.ctype))
        return written

    def _address_of(self, node: c_ast.Node) -> Value:
        lv = self.lvalue(node)
        if isinstance(lv, ScalarLValue):
            self.module.address_taken.add(lv.tag)
            reg = self.b.la(lv.tag)
            return Value(reg, PointerType(lv.ctype))
        if isinstance(lv, MemLValue):
            return Value(lv.addr, PointerType(lv.ctype))
        raise FrontendError("cannot take this address", getattr(node, "coord", None))

    def _expr_BinaryOp(self, node: c_ast.BinaryOp, want_value: bool) -> Value:
        if node.op == "&&":
            return self._logical(node, is_and=True)
        if node.op == "||":
            return self._logical(node, is_and=False)
        if node.op not in _BINOPS:
            raise UnsupportedFeatureError(f"binary {node.op!r}", node.coord)
        lhs = self.rvalue(node.left)
        rhs = self.rvalue(node.right)
        return self._arith(_BINOPS[node.op], node.op, lhs, rhs, node.coord)

    def _arith(
        self, op: Opcode, op_text: str, lhs: Value, rhs: Value, coord: object
    ) -> Value:
        _check_operands(
            op, op_text, coord, lhs.ctype.is_integer(), rhs.ctype.is_integer()
        )
        # pointer arithmetic
        if op is Opcode.ADD and lhs.ctype.is_pointer() and rhs.ctype.is_integer():
            return self._pointer_offset(lhs, rhs, negate=False)
        if op is Opcode.ADD and rhs.ctype.is_pointer() and lhs.ctype.is_integer():
            return self._pointer_offset(rhs, lhs, negate=False)
        if op is Opcode.SUB and lhs.ctype.is_pointer() and rhs.ctype.is_integer():
            return self._pointer_offset(lhs, rhs, negate=True)
        if op is Opcode.SUB and lhs.ctype.is_pointer() and rhs.ctype.is_pointer():
            diff = self.b.binop(Opcode.SUB, lhs.reg, rhs.reg)
            size = max(lhs.ctype.pointee.size, 1)
            if size != 1:
                size_reg = self.b.loadi(size)
                diff = self.b.binop(Opcode.DIV, diff, size_reg)
            return Value(diff, LONG)

        common = usual_arithmetic(lhs.ctype, rhs.ctype)
        lhs_c = self.convert(lhs, common)
        rhs_c = self.convert(rhs, common)
        reg = self.b.binop(op, lhs_c.reg, rhs_c.reg)
        result_type = INT if op_text in _COMPARISONS else common
        return Value(reg, result_type)

    def _pointer_offset(self, pointer: Value, index: Value, negate: bool) -> Value:
        size = max(pointer.ctype.pointee.size, 1)
        idx = index.reg
        if size != 1:
            size_reg = self.b.loadi(size)
            idx = self.b.mul(idx, size_reg)
        op = Opcode.SUB if negate else Opcode.ADD
        reg = self.b.binop(op, pointer.reg, idx)
        return Value(reg, pointer.ctype)

    def _logical(self, node: c_ast.BinaryOp, is_and: bool) -> Value:
        result = self.func.new_vreg("bool")
        rhs_block = self.b.new_block("Lr")
        short_block = self.b.new_block("Lsrt")
        join = self.b.new_block("Lj")

        lhs = self.rvalue(node.left)
        if is_and:
            self.b.cbr(lhs.reg, rhs_block, short_block)
        else:
            self.b.cbr(lhs.reg, short_block, rhs_block)

        self.b.set_block(short_block)
        short_val = self.b.loadi(0 if is_and else 1)
        self.b.mov(short_val, dst=result)
        self.b.jmp(join)

        self.b.set_block(rhs_block)
        rhs = self.rvalue(node.right)
        zero = self.b.loadi(0 if not rhs.ctype.is_float() else 0.0)
        normalized = self.b.binop(Opcode.CMP_NE, rhs.reg, zero)
        self.b.mov(normalized, dst=result)
        self.b.jmp(join)

        self.b.set_block(join)
        return Value(result, INT)

    def _expr_TernaryOp(self, node: c_ast.TernaryOp, want_value: bool) -> Value:
        result = self.func.new_vreg("sel")
        then_block = self.b.new_block("Tt")
        else_block = self.b.new_block("Tf")
        join = self.b.new_block("Tj")

        cond = self.rvalue(node.cond)
        self.b.cbr(cond.reg, then_block, else_block)

        self.b.set_block(then_block)
        then_val = self.rvalue(node.iftrue)
        self.b.mov(then_val.reg, dst=result)
        self.b.jmp(join)

        self.b.set_block(else_block)
        else_val = self.rvalue(node.iffalse)
        self.b.mov(else_val.reg, dst=result)
        self.b.jmp(join)

        self.b.set_block(join)
        ctype = usual_arithmetic(then_val.ctype, else_val.ctype) \
            if then_val.ctype.is_arithmetic() and else_val.ctype.is_arithmetic() \
            else then_val.ctype
        return Value(result, ctype)

    def _expr_Cast(self, node: c_ast.Cast, want_value: bool) -> Value | None:
        target = self.parent.resolve_type(node.to_type.type)
        value = self.rvalue(node.expr)
        if target.is_void():
            return None if not want_value else Value(value.reg, VOID)
        return self.convert(value, target)

    def _expr_ExprList(self, node: c_ast.ExprList, want_value: bool) -> Value | None:
        result: Value | None = None
        for idx, sub in enumerate(node.exprs):
            last = idx == len(node.exprs) - 1
            result = self.expr(sub, want_value=last and want_value)
        return result

    def _expr_FuncCall(self, node: c_ast.FuncCall, want_value: bool) -> Value | None:
        if not isinstance(node.name, c_ast.ID):
            raise UnsupportedFeatureError(
                "indirect calls through expressions are not supported",
                node.coord,
            )
        name = node.name.name
        args = list(node.args.exprs) if node.args is not None else []
        if is_intrinsic(name) and name not in self.parent.functions:
            return self._lower_intrinsic_call(name, args)
        fsym = self.parent.functions.get(name)
        if fsym is None:
            raise FrontendError(f"call to undeclared function {name!r}", node.coord)
        arg_values = self._lower_args(args, fsym.ftype)
        dst = None
        if not fsym.ftype.ret.is_void():
            dst = self.func.new_vreg("ret")
        call = Call(
            dst,
            name,
            [v.reg for v in arg_values],
            mod=TagSet.universe(),
            ref=TagSet.universe(),
            site_id=self.module.new_call_site(),
        )
        self.b.emit(call)
        if dst is None:
            return None
        return Value(dst, fsym.ftype.ret)

    def _lower_args(
        self, args: list[c_ast.Node], ftype: FunctionType | None
    ) -> list[Value]:
        values: list[Value] = []
        for idx, arg in enumerate(args):
            value = self.rvalue(arg)
            if ftype is not None and idx < len(ftype.params):
                value = self.convert(value, ftype.params[idx])
            values.append(value)
        return values

    def _lower_intrinsic_call(
        self, name: str, args: list[c_ast.Node]
    ) -> Value | None:
        spec = INTRINSICS[name]
        arg_values = []
        passes_user_pointer = False
        for arg in args:
            value = self.rvalue(arg)
            if name in {"sqrt", "fabs", "sin", "cos", "exp", "log", "pow", "floor"}:
                value = self.convert(value, DOUBLE)
            if value.ctype.is_pointer() and not _is_string_literal(arg):
                passes_user_pointer = True
            arg_values.append(value)

        mod = TagSet.empty()
        ref = TagSet.empty()
        if passes_user_pointer:
            if spec.writes_pointees:
                mod = TagSet.universe()
            if spec.reads_pointees:
                ref = TagSet.universe()

        dst = None
        if not spec.ret.is_void():
            dst = self.func.new_vreg("ret")
        site_id = self.module.new_call_site()
        if name in ALLOCATORS:
            # name the heap block now so every analysis (not just
            # points-to) sees the allocation site's tag in its universe
            self.module.heap_tag_for_site(site_id)
        call = Call(
            dst,
            name,
            [v.reg for v in arg_values],
            mod=mod,
            ref=ref,
            site_id=site_id,
        )
        self.b.emit(call)
        return None if dst is None else Value(dst, spec.ret)


# ----------------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------------

def _parse_constant(node: c_ast.Constant) -> int | float:
    """A numeric literal's value: a float, or a signed 64-bit integer
    wherever the literal stands."""
    text = node.value
    if node.type == "string":
        raise FrontendError("string constant in numeric context", node.coord)
    if text.endswith("'"):  # pycparser types 'ab' as int
        char = _decode_literal(node)
        if len(char) != 1:
            raise UnsupportedFeatureError(
                f"multi-character constant {text}", node.coord
            )
        return ord(char)
    if node.type in {"float", "double", "long double"}:
        text = text.rstrip("fFlL")
        return float.fromhex(text) if text[:2] in {"0x", "0X"} else float(text)
    cleaned = text.rstrip("uUlL")
    if len(cleaned) > 1 and cleaned[0] == "0" and cleaned[1] not in "xXbB":
        return wrap_int(int(cleaned, 8))  # C octal: 010 == 8 (Python needs 0o10)
    return wrap_int(int(cleaned, 0))


def _decode_literal(node: c_ast.Constant) -> str:
    """The characters between a string or character literal's quotes."""
    text = node.value
    body = text[text.index(text[-1]) + 1:-1]  # after an L, u or U prefix
    try:
        return body.encode().decode("unicode_escape")
    except UnicodeDecodeError:
        raise FrontendError(f"bad escape sequence in {text}", node.coord) from None


def _is_string_literal(node: c_ast.Node) -> bool:
    return isinstance(node, c_ast.Constant) and node.type == "string"


def _check_operands(op: Opcode, text: str, coord: object, *integer: bool) -> None:
    """C's integer-only operators (``_INTEGER_ONLY``) reject an operand
    that is not an integer; ``integer`` says, per operand, whether it is."""
    if op in _INTEGER_ONLY and not all(integer):
        arity = "binary" if len(integer) == 2 else "unary"
        raise FrontendError(f"invalid operands to {arity} {text}", coord)


def _fold(evaluate, node: c_ast.Node, op: Opcode, *operands: int | float) -> int | float:
    """Fold a constant expression with the IL's own arithmetic; a trap
    (division by zero, say) is an error at the expression."""
    try:
        return evaluate(op, *operands)
    except InterpTrap as exc:
        raise FrontendError(f"constant expression: {exc}", node.coord) from None


def _conversion(src: CType, target: CType) -> Opcode | None:
    """The opcode that converts a ``src`` value to ``target``, if any."""
    if target.is_float() and src.is_integer():
        return Opcode.I2F
    if target.is_integer() and src.is_float():
        return Opcode.F2I
    return None


def _convert(node: c_ast.Node, value: int | float, ctype: CType) -> int | float:
    """The constant ``value`` converted to ``ctype`` as
    :meth:`FunctionLowerer.convert` converts it at run time."""
    op = _conversion(DOUBLE if isinstance(value, float) else LONG, ctype)
    return value if op is None else _fold(_unop, node, op, value)


def _init_slots(
    ctype: CType, init: c_ast.Node, offset: int = 0
) -> Iterator[tuple[int, CType, c_ast.Node]]:
    """The ``(offset, type, expression)`` slots an initializer fills, in
    order: file-scope declarations fold them, locals store them.  A list
    element past an array's end is dropped, as gcc drops it."""
    if not isinstance(init, c_ast.InitList):
        if not ctype.is_scalar():
            raise UnsupportedFeatureError(
                "scalar initializer for aggregate", init.coord
            )
        yield offset, ctype, init
    elif isinstance(ctype, ArrayType):
        for idx, item in enumerate(init.exprs[:ctype.length]):
            yield from _init_slots(ctype.elem, item, offset + idx * ctype.elem.size)
    elif isinstance(ctype, StructType):
        for field_, item in zip(ctype.fields, init.exprs):
            yield from _init_slots(field_.ctype, item, offset + field_.offset)
    else:
        raise UnsupportedFeatureError("initializer list for scalar", init.coord)


def _element_size(ctype: CType) -> int:
    if isinstance(ctype, ArrayType):
        return _element_size(ctype.elem)
    return max(ctype.size, 1)
