"""Memory locations and location sizes (LLVM's MemoryLocation equivalent).

An alias query is about two *locations*: a pointer plus a location size
describing how much memory around the pointer is in question.  ORAQL's
query cache deliberately ignores the sizes and keys only on the pointer
pair (paper §IV-A); the dump format prints them (Fig. 3).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.instructions import (
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    StoreInst,
)
from ..ir.metadata import ScopedAliasMD, TBAANode
from ..ir.values import ConstantInt, Value


class LocationSize:
    """Size of a memory access: precise, an upper bound, or unknown.

    ``beforeOrAfterPointer`` means the access may span memory both before
    and after the pointer (the most conservative option, used e.g. for
    whole-object queries like the ``%this`` query in Fig. 3).

    A value: equal and hashed by ``(value, precise)``, never changed
    after construction.
    """

    __slots__ = ("value", "precise")

    def __init__(self, value: Optional[int], precise: bool = True):
        self.value = value  # bytes; None = unknown
        self.precise = precise

    @staticmethod
    def precise_(n: int) -> "LocationSize":
        """The precise size ``n``, one shared instance per ``n``."""
        size = _PRECISE.get(n)
        if size is None:
            size = _PRECISE[n] = LocationSize(n, True)
        return size

    @staticmethod
    def before_or_after_pointer() -> "LocationSize":
        return LocationSize(None, False)

    @property
    def has_value(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        if other.__class__ is not LocationSize:
            return NotImplemented
        return (self.value, self.precise) == (other.value, other.precise)

    def __hash__(self) -> int:
        return hash((self.value, self.precise))

    def __repr__(self) -> str:
        return f"LocationSize(value={self.value!r}, precise={self.precise!r})"

    def __str__(self) -> str:
        if self.value is None:
            return "LocationSize::beforeOrAfterPointer"
        kind = "precise" if self.precise else "upperBound"
        return f"LocationSize::{kind}({self.value})"


#: ``LocationSize.precise_``'s instances, by size
_PRECISE: Dict[int, LocationSize] = {}
BEFORE_OR_AFTER = LocationSize.before_or_after_pointer()


class MemoryLocation:
    """A (pointer, size) pair plus the metadata AA implementations consume.

    A value: equal and hashed by ``(ptr, size, tbaa, scoped)`` (the
    pointer by identity), never changed after construction.
    """

    __slots__ = ("ptr", "size", "tbaa", "scoped")

    def __init__(self, ptr: Value, size: LocationSize,
                 tbaa: Optional[TBAANode] = None,
                 scoped: Optional[ScopedAliasMD] = None):
        self.ptr = ptr
        self.size = size
        self.tbaa = tbaa
        self.scoped = scoped

    # -- factories ----------------------------------------------------------
    @staticmethod
    def get(inst: Instruction) -> "MemoryLocation":
        """The location accessed by a memory instruction."""
        if isinstance(inst, LoadInst):
            return MemoryLocation(
                inst.pointer, LocationSize.precise_(inst.type.size()),
                inst.tbaa, inst.scoped)
        if isinstance(inst, StoreInst):
            return MemoryLocation(
                inst.pointer, LocationSize.precise_(inst.value.type.size()),
                inst.tbaa, inst.scoped)
        if isinstance(inst, MemSetInst):
            return MemoryLocation.for_dst(inst)
        raise TypeError(f"no single location for {inst.opcode}")

    @staticmethod
    def for_size_operand(ptr: Value, size: Value, inst: Instruction) -> "MemoryLocation":
        if isinstance(size, ConstantInt):
            ls = LocationSize.precise_(size.value)
        else:
            ls = BEFORE_OR_AFTER
        return MemoryLocation(ptr, ls, inst.tbaa, inst.scoped)

    @staticmethod
    def for_src(inst: MemCpyInst) -> "MemoryLocation":
        return MemoryLocation.for_size_operand(inst.src, inst.size, inst)

    @staticmethod
    def for_dst(inst) -> "MemoryLocation":
        return MemoryLocation.for_size_operand(inst.dst, inst.size, inst)

    def with_size(self, size: LocationSize) -> "MemoryLocation":
        return MemoryLocation(self.ptr, size, self.tbaa, self.scoped)

    def with_ptr(self, ptr: Value) -> "MemoryLocation":
        return MemoryLocation(ptr, self.size, self.tbaa, self.scoped)

    def __eq__(self, other):
        if other.__class__ is not MemoryLocation:
            return NotImplemented
        return (self.ptr, self.size, self.tbaa, self.scoped) == (
            other.ptr, other.size, other.tbaa, other.scoped)

    def __hash__(self) -> int:
        return hash((self.ptr, self.size, self.tbaa, self.scoped))

    def __repr__(self) -> str:
        return (f"MemoryLocation(ptr={self.ptr!r}, size={self.size!r}, "
                f"tbaa={self.tbaa!r}, scoped={self.scoped!r})")

    def __str__(self) -> str:
        return f"{self.ptr.short()} [{self.size}]"
