"""IRBuilder: positioned instruction factory, mirroring llvm::IRBuilder."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .basicblock import BasicBlock
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
    UnreachableInst,
)
from .metadata import DebugLoc, ScopedAliasMD, TBAANode
from .types import Type, I1, I32, I64, F64
from .values import ConstantFloat, ConstantInt, Value


class IRBuilder:
    """Appends instructions to a block, attaching ambient metadata.

    ``default_dbg`` and ``default_tbaa`` (when set) are stamped onto each
    created instruction, the way clang's CodeGen threads the current
    source location and access type through IRGen.
    """

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self.default_dbg: Optional[DebugLoc] = None
        self.default_tbaa: Optional[TBAANode] = None
        self.default_scoped: Optional[ScopedAliasMD] = None

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self):
        return self.block.parent if self.block else None

    # -- internals ---------------------------------------------------------
    def _insert(self, inst: Instruction, tbaa: Optional[TBAANode] = None,
                dbg: Optional[DebugLoc] = None) -> Instruction:
        assert self.block is not None, "builder not positioned"
        assert self.block.terminator is None, (
            f"appending after terminator in {self.block.name}")
        inst.tbaa = tbaa if tbaa is not None else self.default_tbaa
        inst.dbg = dbg if dbg is not None else self.default_dbg
        inst.scoped = self.default_scoped
        self.block.append(inst)
        return inst

    def _name(self, hint: str) -> str:
        fn = self.function
        return fn.unique_name(hint) if fn is not None else hint

    # -- constants -----------------------------------------------------------
    def i64(self, v: int) -> ConstantInt:
        return ConstantInt(I64, v)

    def i32(self, v: int) -> ConstantInt:
        return ConstantInt(I32, v)

    def i1(self, v: bool) -> ConstantInt:
        return ConstantInt(I1, int(v))

    def f64(self, v: float) -> ConstantFloat:
        return ConstantFloat(F64, v)

    # -- memory ----------------------------------------------------------------
    def alloca(self, ty: Type, count: int = 1, name: str = "") -> AllocaInst:
        return self._insert(AllocaInst(ty, count, name or self._name("a")))

    def load(self, pointer: Value, name: str = "",
             tbaa: Optional[TBAANode] = None,
             dbg: Optional[DebugLoc] = None,
             volatile: bool = False) -> LoadInst:
        return self._insert(
            LoadInst(pointer, name or self._name("ld"), volatile), tbaa, dbg)

    def store(self, value: Value, pointer: Value,
              tbaa: Optional[TBAANode] = None,
              dbg: Optional[DebugLoc] = None,
              volatile: bool = False) -> StoreInst:
        return self._insert(StoreInst(value, pointer, volatile), tbaa, dbg)

    def gep(self, pointer: Value, indices: Sequence[Union[Value, int]],
            name: str = "", inbounds: bool = True,
            dbg: Optional[DebugLoc] = None) -> GEPInst:
        idx = [self.i64(i) if isinstance(i, int) else i for i in indices]
        return self._insert(
            GEPInst(pointer, idx, inbounds, name or self._name("gep")),
            dbg=dbg)

    def memcpy(self, dst: Value, src: Value, size: Union[Value, int]) -> MemCpyInst:
        sz = self.i64(size) if isinstance(size, int) else size
        return self._insert(MemCpyInst(dst, src, sz))

    def memset(self, dst: Value, byte: Union[Value, int],
               size: Union[Value, int]) -> MemSetInst:
        b = self.i32(byte) if isinstance(byte, int) else byte
        sz = self.i64(size) if isinstance(size, int) else size
        return self._insert(MemSetInst(dst, b, sz))

    # -- arithmetic ---------------------------------------------------------
    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._insert(BinaryInst(op, lhs, rhs, name or self._name(op)))

    def add(self, a, b, name=""):
        return self.binop("add", a, b, name)

    def sub(self, a, b, name=""):
        return self.binop("sub", a, b, name)

    def mul(self, a, b, name=""):
        return self.binop("mul", a, b, name)

    def sdiv(self, a, b, name=""):
        return self.binop("sdiv", a, b, name)

    def srem(self, a, b, name=""):
        return self.binop("srem", a, b, name)

    def fadd(self, a, b, name=""):
        return self.binop("fadd", a, b, name)

    def fsub(self, a, b, name=""):
        return self.binop("fsub", a, b, name)

    def fmul(self, a, b, name=""):
        return self.binop("fmul", a, b, name)

    def fdiv(self, a, b, name=""):
        return self.binop("fdiv", a, b, name)

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(pred, lhs, rhs, name or self._name("cmp")))

    def fcmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> FCmpInst:
        return self._insert(FCmpInst(pred, lhs, rhs, name or self._name("fcmp")))

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> CastInst:
        return self._insert(CastInst(op, value, to_type, name or self._name(op)))

    def sitofp(self, v: Value, to_type: Type = F64, name: str = "") -> CastInst:
        return self.cast("sitofp", v, to_type, name)

    def fptosi(self, v: Value, to_type: Type = I64, name: str = "") -> CastInst:
        return self.cast("fptosi", v, to_type, name)

    def select(self, cond: Value, t: Value, f: Value, name: str = "") -> SelectInst:
        return self._insert(SelectInst(cond, t, f, name or self._name("sel")))

    # -- vectors -----------------------------------------------------------
    def splat(self, scalar: Value, lanes: int, name: str = "") -> ShuffleSplatInst:
        return self._insert(ShuffleSplatInst(scalar, lanes, name or self._name("splat")))

    def extractelement(self, vec: Value, index: Union[Value, int],
                       name: str = "") -> ExtractElementInst:
        i = self.i32(index) if isinstance(index, int) else index
        return self._insert(ExtractElementInst(vec, i, name or self._name("ee")))

    def insertelement(self, vec: Value, elem: Value, index: Union[Value, int],
                      name: str = "") -> InsertElementInst:
        i = self.i32(index) if isinstance(index, int) else index
        return self._insert(InsertElementInst(vec, elem, i, name or self._name("ie")))

    # -- control flow ---------------------------------------------------------
    def br(self, dest: BasicBlock) -> BranchInst:
        return self._insert(BranchInst([dest]))

    def cond_br(self, cond: Value, then: BasicBlock, other: BasicBlock) -> BranchInst:
        return self._insert(BranchInst([then, other], cond))

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        return self._insert(ReturnInst(value))

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst())

    def phi(self, ty: Type, name: str = "") -> PhiInst:
        p = PhiInst(ty, name or self._name("phi"))
        p.dbg = self.default_dbg
        # phis always go to the front of the block
        assert self.block is not None
        p.parent = self.block
        self.block.instructions.insert(len(self.block.phis()), p)
        return p

    def call(self, callee, args: Sequence[Value], type: Optional[Type] = None,
             name: str = "") -> CallInst:
        from .function import Function
        if type is None:
            assert isinstance(callee, Function)
            type = callee.return_type
        nm = "" if type.is_void else (name or self._name("call"))
        return self._insert(CallInst(callee, args, type, nm))
