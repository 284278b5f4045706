"""Type system for the repro IR.

The IR is typed in the style of LLVM: first-class integer/float scalars,
pointers, fixed-size arrays, named structs, vectors, and function types.
Types are immutable and interned where cheap so identity comparisons work
for scalars; aggregate equality is structural.

Sizes and alignments follow a conventional LP64 data layout: pointers are
8 bytes, ``double`` is 8, ``float`` is 4, ``iN`` is ``N/8`` rounded up.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple


class Type:
    """Base class of all IR types."""

    #: subclasses override
    def size(self) -> int:
        """Size in bytes when stored in memory."""
        raise NotImplementedError

    def align(self) -> int:
        """ABI alignment in bytes."""
        return max(1, min(self.size(), 8))

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self}>"


class VoidType(Type):
    def size(self) -> int:
        raise TypeError("void has no size")

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class LabelType(Type):
    """The type of basic-block labels (only used by branch operands)."""

    def size(self) -> int:
        raise TypeError("label has no size")

    def __str__(self) -> str:
        return "label"

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelType)

    def __hash__(self) -> int:
        return hash("label")


class IntType(Type):
    """Arbitrary-width two's-complement integer type ``iN``."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits <= 0 or bits > 128:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return max(1, (self.bits + 7) // 8)

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("i", self.bits))


class FloatType(Type):
    """IEEE binary floating point: 32 (``float``) or 64 (``double``)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("f", self.bits))


class PointerType(Type):
    """Pointer to ``pointee``.  All pointers are 8 bytes."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        self.pointee = pointee

    def size(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(Type):
    """Fixed-length homogeneous array ``[N x T]``."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("negative array length")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def align(self) -> int:
        return self.element.align()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.count == self.count
            and other.element == self.element
        )

    def __hash__(self) -> int:
        return hash(("arr", self.element, self.count))


class VectorType(Type):
    """SIMD vector ``<N x T>`` of scalar elements."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int):
        if not (element.is_integer or element.is_float or element.is_pointer):
            raise ValueError("vector elements must be scalar")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def __str__(self) -> str:
        return f"<{self.count} x {self.element}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorType)
            and other.count == self.count
            and other.element == self.element
        )

    def __hash__(self) -> int:
        return hash(("vec", self.element, self.count))


def _align_up(offset: int, align: int) -> int:
    return (offset + align - 1) & ~(align - 1)


class StructType(Type):
    """A named struct with ordered fields.

    Field offsets follow natural alignment (no packing).  Structs are
    compared by name when named (nominal typing, like LLVM's identified
    structs) and structurally when anonymous.

    The body is fixed at construction (``fields`` is read-only), so the
    layout -- size, alignment and field offsets -- is computed once, on
    first use, and kept on the type, like LLVM's ``StructLayout``.
    """

    __slots__ = ("name", "_fields", "field_names", "_ptr", "_layout")

    def __init__(
        self,
        name: str,
        fields: Sequence[Type],
        field_names: Optional[Sequence[str]] = None,
    ):
        self.name = name
        self._fields: Tuple[Type, ...] = tuple(fields)
        if field_names is None:
            field_names = tuple(f"f{i}" for i in range(len(self._fields)))
        if len(field_names) != len(self._fields):
            raise ValueError("field name count mismatch")
        self.field_names: Tuple[str, ...] = tuple(field_names)
        self._layout: Optional[Tuple[int, int, Tuple[int, ...]]] = None

    @property
    def fields(self) -> Tuple[Type, ...]:
        return self._fields

    def layout(self) -> Tuple[int, int, Tuple[int, ...]]:
        """``(size, align, field offsets)``, computed on first use."""
        layout = self._layout
        if layout is None:
            offset = 0
            align = 1
            offsets = []
            for f in self._fields:
                fa = f.align()
                offset = _align_up(offset, fa)
                offsets.append(offset)
                offset += f.size()
                align = max(align, fa)
            layout = self._layout = (_align_up(offset, align), align,
                                     tuple(offsets))
        return layout

    def field_offset(self, index: int) -> int:
        offsets = self.layout()[2]
        if not 0 <= index < len(offsets):
            raise IndexError(index)
        return offsets[index]

    def field_index(self, name: str) -> int:
        try:
            return self.field_names.index(name)
        except ValueError:
            raise KeyError(f"struct {self.name} has no field {name!r}") from None

    def size(self) -> int:
        return self.layout()[0]

    def align(self) -> int:
        return self.layout()[1]

    def __str__(self) -> str:
        if self.name:
            return f"%struct.{self.name}"
        inner = ", ".join(str(f) for f in self._fields)
        return f"{{ {inner} }}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructType):
            return False
        if self.name or other.name:
            return self.name == other.name
        return self._fields == other._fields

    def __hash__(self) -> int:
        if self.name:
            return hash(("struct", self.name))
        return hash(("struct",) + self._fields)


class FunctionType(Type):
    """Function signature ``ret(params...)``; optionally variadic."""

    __slots__ = ("ret", "params", "vararg")

    def __init__(self, ret: Type, params: Iterable[Type], vararg: bool = False):
        self.ret = ret
        self.params: Tuple[Type, ...] = tuple(params)
        self.vararg = vararg

    def size(self) -> int:
        raise TypeError("function type has no size")

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.vararg:
            ps = ps + ", ..." if ps else "..."
        return f"{self.ret} ({ps})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash(("fn", self.ret, self.params, self.vararg))


# Interned common types -------------------------------------------------------

VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


@lru_cache(maxsize=None)
def _ptr_interned(pointee: Type) -> PointerType:
    return PointerType(pointee)


def ptr(pointee: Type) -> PointerType:
    """Interned pointer-type constructor.

    Named structs intern *by identity*, not by structural equality: two
    modules may define distinct structs with the same name (e.g. the
    OpenMP outliner's context structs), and a name-keyed cache would
    hand out a pointer to the wrong one.
    """
    if isinstance(pointee, StructType):
        # held weakly: the struct and its pointer would otherwise be a
        # cycle, and every dead module's structs would wait for the
        # cyclic collector.  A pointer type nothing uses may be remade.
        ref = getattr(pointee, "_ptr", None)
        cached = ref() if ref is not None else None
        if cached is None:
            cached = PointerType(pointee)
            pointee._ptr = weakref.ref(cached)
        return cached
    if _embeds_struct(pointee):
        # named structs compare by name, so equality-keyed interning
        # could hand back a pointer into a *different* module's struct
        return PointerType(pointee)
    return _ptr_interned(pointee)


def _embeds_struct(ty: Type) -> bool:
    if isinstance(ty, StructType):
        return True
    if isinstance(ty, PointerType):
        return _embeds_struct(ty.pointee)
    if isinstance(ty, (ArrayType, VectorType)):
        return _embeds_struct(ty.element)
    return False


I8PTR = ptr(I8)
