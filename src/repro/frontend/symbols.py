"""Symbol tables for the C front end.

The storage decision the paper describes in section 2 happens here: every
declared variable is assigned either a virtual register (scalars whose
address is never taken and that are local to one function) or a memory
location named by a :class:`~repro.ir.tags.Tag` (globals, address-taken
locals, arrays, structs).  Register promotion exists precisely to undo the
memory decision, loop by loop, once analysis proves it safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ctype_model import CType, FunctionType
from ..errors import FrontendError
from ..ir.instructions import VReg
from ..ir.tags import Tag


@dataclass
class VarSymbol:
    """A declared variable and where it lives."""

    name: str
    ctype: CType
    reg: VReg | None = None   # register-resident scalar
    tag: Tag | None = None    # memory-resident value
    is_global: bool = False

    @property
    def in_register(self) -> bool:
        return self.reg is not None


@dataclass
class FuncSymbol:
    """A function signature visible at file scope."""

    name: str
    ftype: FunctionType
    defined: bool = False


@dataclass(frozen=True)
class EnumConst:
    """An enumerator; usable wherever an integer constant is."""

    name: str
    value: int


class ScopeStack:
    """Lexical scopes mapping names to symbols.

    Globals live in the outermost scope; each compound statement pushes a
    scope.  Lookup walks inside-out.
    """

    def __init__(self) -> None:
        self._scopes: list[dict[str, VarSymbol | EnumConst]] = [{}]

    def push(self) -> None:
        self._scopes.append({})

    def pop(self) -> None:
        if len(self._scopes) == 1:
            raise FrontendError("cannot pop the global scope")
        self._scopes.pop()

    def declare(self, symbol: VarSymbol | EnumConst) -> None:
        scope = self._scopes[-1]
        if symbol.name in scope:
            raise FrontendError(f"redeclaration of {symbol.name!r}")
        scope[symbol.name] = symbol

    def lookup(self, name: str) -> VarSymbol | EnumConst | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def lookup_var(self, name: str) -> VarSymbol:
        sym = self.lookup(name)
        if not isinstance(sym, VarSymbol):
            raise FrontendError(f"use of undeclared variable {name!r}")
        return sym

    def depth(self) -> int:
        return len(self._scopes)
