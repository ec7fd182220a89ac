"""Modules: whole translation units of tagged IL.

A :class:`Module` holds every function plus the static data the program
references: global variables (each with a tag and optional initializer),
string literals, and the registry of heap allocation sites.  The module is
the unit handed to interprocedural analysis, the optimizer, and the
interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import IRError
from .function import Function
from .tags import Tag, TagKind


@dataclass
class GlobalVar:
    """A file-scope variable.

    ``size`` is in bytes; ``init`` maps byte offsets to initial word values
    (ints or floats).  Scalars have ``size`` equal to their element size and
    a single initializer at offset 0.
    """

    tag: Tag
    size: int
    elem_size: int
    init: dict[int, int | float] = field(default_factory=dict)
    is_const: bool = False

    @property
    def name(self) -> str:
        return self.tag.name


@dataclass
class StringLiteral:
    """A read-only string constant with its own internal tag."""

    tag: Tag
    text: str


class Module:
    """A complete program in IL form."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.strings: dict[str, StringLiteral] = {}
        #: call-site id -> heap tag, for sites that may allocate
        self.heap_tags: dict[int, Tag] = {}
        #: tags whose address is ever taken (explicitly via ``&`` or
        #: implicitly via array/struct decay); populated by the front end.
        self.address_taken: set[Tag] = set()
        #: functions whose address is taken (indirect call targets).
        self.addressed_functions: set[str] = set()
        self._next_site = 0

    def __getstate__(self) -> dict:
        # the compiled interpreter tier caches generated functions on the
        # module (see repro.interp.compiled); they are unpicklable and
        # cheap to rebuild, so drop them from pickles and deep copies
        state = self.__dict__.copy()
        state.pop("_compiled", None)
        return state

    # -- functions -------------------------------------------------------
    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name}") from None

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    # -- data ---------------------------------------------------------------
    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise IRError(f"duplicate global {var.name}")
        self.globals[var.name] = var
        return var

    def add_string(self, text: str) -> StringLiteral:
        key = text
        if key in self.strings:
            return self.strings[key]
        tag = Tag(f"@str{len(self.strings)}", TagKind.INTERNAL, is_scalar=False)
        lit = StringLiteral(tag, text)
        self.strings[key] = lit
        return lit

    # -- call sites and heap naming --------------------------------------------
    def new_call_site(self) -> int:
        site = self._next_site
        self._next_site += 1
        return site

    def heap_tag_for_site(self, site_id: int) -> Tag:
        """The heap tag naming all memory allocated at this call site."""
        if site_id not in self.heap_tags:
            self.heap_tags[site_id] = Tag(
                f"heap@{site_id}", TagKind.HEAP, is_scalar=False
            )
        return self.heap_tags[site_id]

    # -- tag universe -----------------------------------------------------------
    def memory_tags(self) -> list[Tag]:
        """Every tag that user code could possibly reference through memory:
        globals, address-taken locals/aggregates, and heap sites.  Internal
        tags (string literals, runtime state) are excluded — user pointers
        cannot lawfully reach them."""
        tags: list[Tag] = [g.tag for g in self.globals.values()]
        for func in self.functions.values():
            tags.extend(func.local_tags)
        tags.extend(self.heap_tags.values())
        return tags

    def addressable_tags(self) -> list[Tag]:
        """Tags whose address can circulate in pointers.

        Globals count as addressable only if their address is taken or they
        are aggregates (arrays decay to pointers); this mirrors the paper's
        MOD/REF analyzer, which only places address-taken tags in the tag
        sets of pointer-based operations.  Front ends mark address-taken
        tags by listing them in :attr:`address_taken`.
        """
        return [t for t in self.memory_tags() if t in self.address_taken]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
