"""A compact model of the C types the front end supports.

The reproduction targets the C subset our 14 workloads are written in:
integer types (``char``/``short``/``int``/``long``), floating point
(``float``/``double`` — both modelled as 8-byte doubles), pointers,
1-D and multi-dimensional arrays, flat structs, and function types.

Sizes are in bytes.  Struct fields are laid out at offsets aligned to the
field size (natural alignment), and the struct size is rounded up to the
largest member alignment — the layout a typical LP64 C compiler produces
for these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedFeatureError

WORD = 8  # pointer / long / double size


class CType:
    """Base class for all C types."""

    size: int

    def is_integer(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False

    def is_struct(self) -> bool:
        return False

    def is_void(self) -> bool:
        return False

    def is_function(self) -> bool:
        return False

    def is_scalar(self) -> bool:
        """Scalar in the register-promotion sense: fits one register."""
        return self.is_integer() or self.is_float() or self.is_pointer()

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_float()


@dataclass(frozen=True)
class VoidType(CType):
    size: int = 0

    def is_void(self) -> bool:
        return True

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """Any integer type.  ``signed`` is tracked for completeness; the
    interpreter computes in 64-bit two's complement regardless."""

    size: int = 4
    signed: bool = True
    name: str = "int"

    def is_integer(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FloatType(CType):
    size: int = WORD
    name: str = "double"

    def is_float(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType = field(default_factory=VoidType)
    size: int = WORD

    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    elem: CType = field(default_factory=IntType)
    length: int = 0
    size: int = 0  # recomputed in __post_init__

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", self.elem.size * self.length)

    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.elem}[{self.length}]"


@dataclass(frozen=True)
class StructField:
    name: str
    ctype: CType
    offset: int


@dataclass(frozen=True)
class StructType(CType):
    name: str = ""
    fields: tuple[StructField, ...] = ()
    size: int = 0

    def is_struct(self) -> bool:
        return True

    def field_named(self, name: str) -> StructField:
        for f in self.fields:
            if f.name == name:
                return f
        raise UnsupportedFeatureError(
            f"struct {self.name} has no member {name!r}"
        )

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class FunctionType(CType):
    ret: CType = field(default_factory=VoidType)
    params: tuple[CType, ...] = ()
    varargs: bool = False
    size: int = WORD  # a function designator decays to a pointer

    def is_function(self) -> bool:
        return True

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({args})"


# -- canonical instances --------------------------------------------------
VOID = VoidType()
CHAR = IntType(size=1, name="char")
SHORT = IntType(size=2, name="short")
INT = IntType(size=4, name="int")
LONG = IntType(size=8, name="long")
UINT = IntType(size=4, signed=False, name="unsigned int")
ULONG = IntType(size=8, signed=False, name="unsigned long")
DOUBLE = FloatType()
CHAR_PTR = PointerType(CHAR)


def align_up(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    return (value + alignment - 1) // alignment * alignment


def natural_alignment(ctype: CType) -> int:
    if ctype.is_array():
        return natural_alignment(ctype.elem)  # type: ignore[attr-defined]
    if ctype.is_struct():
        aligns = [natural_alignment(f.ctype) for f in ctype.fields]  # type: ignore[attr-defined]
        return max(aligns, default=1)
    return max(ctype.size, 1)


def build_struct(name: str, members: list[tuple[str, CType]]) -> StructType:
    """Lay out a struct with natural alignment."""
    fields: list[StructField] = []
    offset = 0
    for member_name, member_type in members:
        offset = align_up(offset, natural_alignment(member_type))
        fields.append(StructField(member_name, member_type, offset))
        offset += member_type.size
    total = align_up(offset, max((natural_alignment(t) for _, t in members), default=1))
    return StructType(name=name, fields=tuple(fields), size=total)


def decay(ctype: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay in rvalue contexts."""
    if ctype.is_array():
        return PointerType(ctype.elem)  # type: ignore[attr-defined]
    if ctype.is_function():
        return PointerType(ctype)
    return ctype


def usual_arithmetic(lhs: CType, rhs: CType) -> CType:
    """The usual arithmetic conversions, collapsed to our two families."""
    if lhs.is_float() or rhs.is_float():
        return DOUBLE
    if lhs.is_pointer():
        return lhs
    if rhs.is_pointer():
        return rhs
    # integer promotion: compute in the wider of the two, at least int
    width = max(lhs.size, rhs.size, INT.size)
    if width > INT.size:
        return LONG
    return INT
