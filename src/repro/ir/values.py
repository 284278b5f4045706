"""SSA values: constants, arguments, globals, and the use-list machinery."""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Set, Tuple

from .types import (
    F64,
    I64,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    VectorType,
)
from .uselist import UseList

_value_ids = itertools.count()


class Value:
    """Base class of everything that can appear as an operand.

    Each value tracks its users so transformation passes can rewrite uses
    (``replace_all_uses_with``).  Identity (not structural equality) is
    what SSA cares about, so values compare by identity (``object``'s
    ``==``) and hash by id.
    """

    __slots__ = ("type", "name", "users", "id", "__weakref__")

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        self.users: UseList = UseList()
        self.id = next(_value_ids)

    # -- use bookkeeping ------------------------------------------------
    def replace_all_uses_with(self, new: "Value") -> None:
        if new is self:
            return
        for user in list(self.users):
            user._replace_operand(self, new)  # type: ignore[attr-defined]

    def _replace_operand(self, old: "Value", new: "Value") -> None:
        raise TypeError(f"{self.__class__.__name__} has no operands")

    # -- display --------------------------------------------------------
    def short(self) -> str:
        """Operand-position rendering (``%name`` / literal)."""
        return f"%{self.name or self.id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.short()}: {self.type}>"

    def __hash__(self) -> int:
        # the creation counter, not the address: set iteration order,
        # and so every pass that walks a set of values, is reproducible
        return self.id


class Constant(Value):
    """Base class of constants; constants have no defining instruction."""

    __slots__ = ()


class ConstantInt(Constant):
    __slots__ = ("value",)

    def __init__(self, type: IntType, value: int):
        super().__init__(type)
        mask = (1 << type.bits) - 1
        self.value = value & mask
        # store signed canonical form
        if self.value >= (1 << (type.bits - 1)) and type.bits > 1:
            self.value -= 1 << type.bits

    def short(self) -> str:
        return str(self.value)


class ConstantFloat(Constant):
    __slots__ = ("value",)

    def __init__(self, type: FloatType, value: float):
        super().__init__(type)
        self.value = float(value)

    def short(self) -> str:
        return repr(self.value)


class ConstantNull(Constant):
    """Null pointer constant."""

    __slots__ = ()

    def __init__(self, type: PointerType):
        super().__init__(type)

    def short(self) -> str:
        return "null"


class UndefValue(Constant):
    __slots__ = ()

    def short(self) -> str:
        return "undef"


class ConstantData(Constant):
    """Flat initializer data for globals (arrays/structs of scalars)."""

    __slots__ = ("values",)

    def __init__(self, type: Type, values: Tuple):
        super().__init__(type)
        self.values = tuple(values)

    def short(self) -> str:
        return f"[{', '.join(map(str, self.values[:4]))}{', ...' if len(self.values) > 4 else ''}]"


class Argument(Value):
    """A formal function argument, with LLVM-style parameter attributes."""

    __slots__ = ("function", "index", "attrs")

    def __init__(self, type: Type, name: str, function, index: int,
                 attrs: Optional[Set[str]] = None):
        super().__init__(type, name)
        self.function = function
        self.index = index
        #: e.g. {"noalias", "readonly", "nocapture", "byval"}
        self.attrs: Set[str] = set(attrs or ())

    @property
    def is_noalias(self) -> bool:
        return "noalias" in self.attrs


class GlobalVariable(Value):
    """A module-level variable.  Its value *is* the address (a pointer)."""

    __slots__ = ("value_type", "initializer", "is_constant", "linkage")

    def __init__(self, value_type: Type, name: str,
                 initializer: Optional[Constant] = None,
                 is_constant: bool = False, linkage: str = "internal"):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant
        self.linkage = linkage

    def short(self) -> str:
        return f"@{self.name}"


# -- convenience constructors -------------------------------------------------

def const_int(value: int, type: IntType = None) -> ConstantInt:
    return ConstantInt(type or I64, value)


def const_float(value: float, type: FloatType = None) -> ConstantFloat:
    return ConstantFloat(type or F64, value)


def is_constant_value(v: Value) -> bool:
    return isinstance(v, Constant)
