"""Instruction classes for the repro IR.

The set mirrors the LLVM subset that matters for alias analysis and the
optimizations ORAQL perturbs: stack allocation, loads/stores (scalar and
vector), GEP address arithmetic, integer/float arithmetic, comparisons,
casts, phis, branches, calls, and the memory intrinsics ``memcpy`` /
``memset``.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

from .metadata import DebugLoc, ScopedAliasMD, TBAANode
from .types import (
    ArrayType,
    PointerType,
    StructType,
    Type,
    VectorType,
    I1,
    VOID,
    ptr,
)
from .values import ConstantInt, Value

# Binary opcodes grouped by domain.
INT_BINOPS = {"add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
              "and", "or", "xor", "shl", "ashr", "lshr"}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
BINOPS = INT_BINOPS | FLOAT_BINOPS
COMMUTATIVE_BINOPS = {"add", "mul", "and", "or", "xor", "fadd", "fmul"}

ICMP_PREDS = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FCMP_PREDS = {"oeq", "one", "olt", "ole", "ogt", "oge"}

CAST_OPS = {"trunc", "zext", "sext", "fptosi", "sitofp", "fpext", "fptrunc",
            "bitcast", "ptrtoint", "inttoptr"}

#: intrinsics with no memory effects at all (pure math)
PURE_INTRINSICS = {
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "floor", "ceil",
    "fmin", "fmax", "llvm.vector.reduce.fadd", "llvm.vector.reduce.add",
}

#: The IR mutation epoch, one per process.  Every operand write moves
#: it: ``_add_operand``, ``set_operand``, ``_replace_operand`` (so
#: ``replace_all_uses_with``), ``drop_all_references`` (so
#: ``erase_from_parent``), ``PhiInst.remove_incoming`` and
#: ``clone.move_body``.  A fact computed from operands alone holds while
#: the epoch it was computed at holds: ``basic_aa.decompose_pointer``
#: and ``aliasing.underlying_object`` keep theirs on the instruction
#: (the ``_decomp`` and ``_underlying`` slots, each ``(epoch, fact)`` or
#: None).  Read it as ``instructions.epoch``: a name imported from here
#: would not move.
epoch = 0


class Instruction(Value):
    """Base instruction: an SSA value with operands, a parent block, and
    the metadata families consumed by the AA stack and by ORAQL dumps."""

    __slots__ = ("operands", "parent", "tbaa", "scoped", "dbg",
                 "_decomp", "_underlying")

    opcode: str = "?"

    def __init__(self, type: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type, name)
        self.operands: List[Value] = []
        self.parent = None  # BasicBlock, set on insertion
        self.tbaa: Optional[TBAANode] = None
        self.scoped: Optional[ScopedAliasMD] = None
        self.dbg: Optional[DebugLoc] = None
        self._decomp = self._underlying = None
        for op in operands:
            self._add_operand(op)

    # -- operand plumbing -------------------------------------------------
    def _add_operand(self, v: Value) -> None:
        global epoch
        assert isinstance(v, Value), f"non-value operand {v!r}"
        epoch += 1
        self.operands.append(v)
        v.users.add(self)

    def set_operand(self, index: int, v: Value) -> None:
        global epoch
        epoch += 1
        old = self.operands[index]
        self.operands[index] = v
        if old not in self.operands:
            old.users.discard(self)
        v.users.add(self)

    def _replace_operand(self, old: Value, new: Value) -> None:
        global epoch
        epoch += 1
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                new.users.add(self)
        old.users.discard(self)

    def drop_all_references(self) -> None:
        """Drop every operand, and the pointer facts kept on the
        instruction, which may point into the IR."""
        global epoch
        epoch += 1
        for op in self.operands:  # discard is idempotent: no dedup
            op.users.discard(self)
        self.operands.clear()
        self._decomp = self._underlying = None

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand uses."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_all_references()

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    @property
    def module(self):
        fn = self.function
        return fn.parent if fn is not None else None

    # -- behaviour classification -----------------------------------------
    #: a class attribute, not a property: read on every CFG walk
    is_terminator = False

    def may_read_memory(self) -> bool:
        return False

    def may_write_memory(self) -> bool:
        return False

    def has_side_effects(self) -> bool:
        """True if the instruction must not be removed even when unused."""
        return self.may_write_memory()

    def clone(self) -> "Instruction":
        """Shallow clone with the same operands, not inserted anywhere."""
        new = copy.copy(self)
        # Re-run value bookkeeping: fresh id, fresh (empty) user set.
        Value.__init__(new, self.type, self.name)
        new.operands = []
        new.parent = None
        new._decomp = new._underlying = None
        for op in self.operands:
            new._add_operand(op)
        new.tbaa = self.tbaa
        new.scoped = self.scoped
        new.dbg = self.dbg
        return new

    def __repr__(self) -> str:  # pragma: no cover
        ops = ", ".join(o.short() for o in self.operands)
        return f"<{self.opcode} {self.short()} [{ops}]>"


class AllocaInst(Instruction):
    """Stack allocation of ``count`` elements of ``allocated_type``."""

    __slots__ = ("allocated_type", "count")
    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: int = 1, name: str = ""):
        super().__init__(ptr(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.count = count

    def size_bytes(self) -> int:
        return self.allocated_type.size() * self.count


class LoadInst(Instruction):
    __slots__ = ("is_volatile",)
    opcode = "load"

    def __init__(self, pointer: Value, name: str = "", volatile: bool = False):
        assert pointer.type.is_pointer, f"load from non-pointer {pointer!r}"
        super().__init__(pointer.type.pointee, [pointer], name)
        self.is_volatile = volatile

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def may_read_memory(self) -> bool:
        return True

    def has_side_effects(self) -> bool:
        return self.is_volatile


class StoreInst(Instruction):
    __slots__ = ("is_volatile",)
    opcode = "store"

    def __init__(self, value: Value, pointer: Value, volatile: bool = False):
        assert pointer.type.is_pointer
        super().__init__(VOID, [value, pointer])
        self.is_volatile = volatile

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    def may_write_memory(self) -> bool:
        return True


class GEPInst(Instruction):
    """``getelementptr``: typed address arithmetic.

    The first index scales by the size of the pointee; later indices step
    into arrays (dynamic) or struct fields (constant).
    """

    __slots__ = ("inbounds",)
    opcode = "getelementptr"

    def __init__(self, pointer: Value, indices: Sequence[Value],
                 inbounds: bool = True, name: str = ""):
        assert pointer.type.is_pointer
        result = self.result_type(pointer.type, indices)
        super().__init__(result, [pointer, *indices], name)
        self.inbounds = inbounds

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    @staticmethod
    def result_type(ptr_type: PointerType, indices: Sequence[Value]) -> PointerType:
        ty: Type = ptr_type.pointee
        for idx in list(indices)[1:]:
            if isinstance(ty, ArrayType):
                ty = ty.element
            elif isinstance(ty, VectorType):
                ty = ty.element
            elif isinstance(ty, StructType):
                if not isinstance(idx, ConstantInt):
                    raise TypeError("struct GEP index must be constant")
                if not 0 <= idx.value < len(ty.fields):
                    raise TypeError(
                        f"struct GEP index {idx.value} out of range for {ty}")
                ty = ty.fields[idx.value]
            else:
                raise TypeError(f"cannot index into {ty}")
        return ptr(ty)

    def constant_offset(self) -> Optional[int]:
        """Byte offset if all indices are constants, else None."""
        offset = 0
        ty: Type = self.pointer.type.pointee
        for i, idx in enumerate(self.indices):
            if not isinstance(idx, ConstantInt):
                return None
            if i == 0:
                offset += idx.value * ty.size()
            elif isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
                offset += idx.value * ty.size()
            elif isinstance(ty, StructType):
                offset += ty.field_offset(idx.value)
                ty = ty.fields[idx.value]
            else:  # pragma: no cover - verifier rejects
                return None
        return offset

    def decomposed(self) -> Tuple[Value, Optional[int], List[Tuple[Value, int]]]:
        """Decompose into (base, const_offset_or_None, [(var_index, scale)]).

        const part accumulates all constant indices; var part records each
        non-constant index with its byte scale.  Used by BasicAA.
        """
        const_off = 0
        var_parts: List[Tuple[Value, int]] = []
        ty: Type = self.pointer.type.pointee
        for i, idx in enumerate(self.indices):
            if i == 0:
                scale = ty.size()
            elif isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
                scale = ty.size()
            elif isinstance(ty, StructType):
                if isinstance(idx, ConstantInt):
                    const_off += ty.field_offset(idx.value)
                    ty = ty.fields[idx.value]
                    continue
                raise TypeError("struct GEP index must be constant")
            else:  # pragma: no cover
                raise TypeError(f"cannot index into {ty}")
            if isinstance(idx, ConstantInt):
                const_off += idx.value * scale
            else:
                var_parts.append((idx, scale))
        return self.pointer, const_off, var_parts


class BinaryInst(Instruction):
    __slots__ = ("op",)
    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        assert op in BINOPS, f"unknown binop {op}"
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmpInst(Instruction):
    __slots__ = ("pred",)
    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        assert pred in ICMP_PREDS, pred
        result: Type = I1
        if isinstance(lhs.type, VectorType):
            result = VectorType(I1, lhs.type.count)
        super().__init__(result, [lhs, rhs], name)
        self.pred = pred


class FCmpInst(Instruction):
    __slots__ = ("pred",)
    opcode = "fcmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        assert pred in FCMP_PREDS, pred
        result: Type = I1
        if isinstance(lhs.type, VectorType):
            result = VectorType(I1, lhs.type.count)
        super().__init__(result, [lhs, rhs], name)
        self.pred = pred


class CastInst(Instruction):
    __slots__ = ("op",)
    opcode = "cast"

    def __init__(self, op: str, value: Value, to_type: Type, name: str = ""):
        assert op in CAST_OPS, op
        super().__init__(to_type, [value], name)
        self.op = op

    @property
    def value(self) -> Value:
        return self.operands[0]


class SelectInst(Instruction):
    __slots__ = ()
    opcode = "select"

    def __init__(self, cond: Value, tval: Value, fval: Value, name: str = ""):
        super().__init__(tval.type, [cond, tval, fval], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]


class PhiInst(Instruction):
    """SSA phi node.  Incoming blocks are stored alongside operands."""

    __slots__ = ("incoming_blocks",)
    opcode = "phi"

    def __init__(self, type: Type, name: str = ""):
        super().__init__(type, [], name)
        self.incoming_blocks: List = []

    def add_incoming(self, value: Value, block) -> None:
        self._add_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[Tuple[Value, object]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for_block(self, block) -> Optional[Value]:
        for v, b in zip(self.operands, self.incoming_blocks):
            if b is block:
                return v
        return None

    def remove_incoming(self, block) -> None:
        global epoch
        for i, b in enumerate(self.incoming_blocks):
            if b is block:
                epoch += 1
                old = self.operands.pop(i)
                self.incoming_blocks.pop(i)
                if old not in self.operands:
                    old.users.discard(self)
                return


class BranchInst(Instruction):
    """Unconditional (1 target) or conditional (cond + 2 targets) branch."""

    __slots__ = ("targets",)
    opcode = "br"

    def __init__(self, targets: Sequence, cond: Optional[Value] = None):
        super().__init__(VOID, [cond] if cond is not None else [])
        self.targets = list(targets)
        assert (cond is None and len(self.targets) == 1) or (
            cond is not None and len(self.targets) == 2
        )

    @property
    def is_conditional(self) -> bool:
        return bool(self.operands)

    @property
    def condition(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    is_terminator = True

    def has_side_effects(self) -> bool:
        return True


class ReturnInst(Instruction):
    __slots__ = ()
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    is_terminator = True

    def has_side_effects(self) -> bool:
        return True


class UnreachableInst(Instruction):
    __slots__ = ()
    opcode = "unreachable"

    def __init__(self):
        super().__init__(VOID, [])

    is_terminator = True

    def has_side_effects(self) -> bool:
        return True


class CallInst(Instruction):
    """Direct call to a Function, or to a named intrinsic/runtime shim."""

    __slots__ = ("callee",)
    opcode = "call"

    def __init__(self, callee, args: Sequence[Value], type: Type, name: str = ""):
        super().__init__(type, list(args), name)
        self.callee = callee  # Function | str

    @property
    def callee_name(self) -> str:
        return self.callee if isinstance(self.callee, str) else self.callee.name

    @property
    def args(self) -> List[Value]:
        return list(self.operands)

    def is_intrinsic(self) -> bool:
        return isinstance(self.callee, str)

    def is_pure(self) -> bool:
        if self.is_intrinsic():
            return self.callee in PURE_INTRINSICS
        return "readnone" in getattr(self.callee, "attrs", set())

    def only_reads_memory(self) -> bool:
        if self.is_pure():
            return True
        return not self.is_intrinsic() and "readonly" in getattr(
            self.callee, "attrs", set())

    def may_read_memory(self) -> bool:
        return not self.is_pure()

    def may_write_memory(self) -> bool:
        return not self.is_pure() and not self.only_reads_memory()

    def has_side_effects(self) -> bool:
        return not self.is_pure()


class MemCpyInst(Instruction):
    """memcpy(dst, src, nbytes); dst and src must not overlap."""

    __slots__ = ()
    opcode = "memcpy"

    def __init__(self, dst: Value, src: Value, size: Value):
        super().__init__(VOID, [dst, src, size])

    @property
    def dst(self) -> Value:
        return self.operands[0]

    @property
    def src(self) -> Value:
        return self.operands[1]

    @property
    def size(self) -> Value:
        return self.operands[2]

    def may_read_memory(self) -> bool:
        return True

    def may_write_memory(self) -> bool:
        return True


class MemSetInst(Instruction):
    """memset(dst, byte, nbytes)."""

    __slots__ = ()
    opcode = "memset"

    def __init__(self, dst: Value, byte: Value, size: Value):
        super().__init__(VOID, [dst, byte, size])

    @property
    def dst(self) -> Value:
        return self.operands[0]

    @property
    def byte(self) -> Value:
        return self.operands[1]

    @property
    def size(self) -> Value:
        return self.operands[2]

    def may_write_memory(self) -> bool:
        return True


class ExtractElementInst(Instruction):
    __slots__ = ()
    opcode = "extractelement"

    def __init__(self, vector: Value, index: Value, name: str = ""):
        assert isinstance(vector.type, VectorType)
        super().__init__(vector.type.element, [vector, index], name)


class InsertElementInst(Instruction):
    __slots__ = ()
    opcode = "insertelement"

    def __init__(self, vector: Value, element: Value, index: Value, name: str = ""):
        assert isinstance(vector.type, VectorType)
        super().__init__(vector.type, [vector, element, index], name)


class ShuffleSplatInst(Instruction):
    """Broadcast a scalar into all lanes of a vector (splat shuffle)."""

    __slots__ = ("lanes",)
    opcode = "splat"

    def __init__(self, scalar: Value, lanes: int, name: str = ""):
        super().__init__(VectorType(scalar.type, lanes), [scalar], name)
        self.lanes = lanes


MemoryInst = (LoadInst, StoreInst, MemCpyInst, MemSetInst)
