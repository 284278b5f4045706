"""CFL-Steensgaard-style unification-based points-to alias analysis.

Flow-insensitive, intraprocedural, field-insensitive, almost-linear via
union-find — the classic Steensgaard trade-off [33].  Off by default in
the chain (as in LLVM 14); enabled by the ``cfl-steens`` pipeline flag.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    CallInst,
    CastInst,
    GEPInst,
    LoadInst,
    PhiInst,
    SelectInst,
    StoreInst,
)
from ..ir.values import Argument, GlobalVariable, Value
from .aliasing import AliasAnalysisPass, AliasResult, underlying_object
from .memloc import MemoryLocation

EXTERNAL = "<external>"


class _UnionFind:
    def __init__(self):
        self.parent: Dict[object, object] = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p is x:
            return x
        root = self.find(p)
        self.parent[x] = root
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[ra] = rb
        return self.find(a)


class _SteensSummary:
    """Per-function unification result.

    Each equivalence class has one "pointee" class; loads/stores unify
    through it.  ``external`` is the class of everything escaping.
    """

    def __init__(self, fn: Function):
        self.uf = _UnionFind()
        self.pointee: Dict[object, object] = {}
        self._fresh = 0
        self.external_class = self._node(EXTERNAL)
        # external's pointee is external itself (top)
        self.pointee[self.external_class] = self.external_class
        self._build(fn)

    def _node(self, key):
        return self.uf.find(key)

    def _pointee_of(self, cls):
        cls = self.uf.find(cls)
        p = self.pointee.get(cls)
        if p is None:
            self._fresh += 1
            p = self.uf.find(("obj", self._fresh))
            self.pointee[cls] = p
        return self.uf.find(p)

    def _unify(self, a, b):
        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra is rb:
            return ra
        pa, pb = self.pointee.get(ra), self.pointee.get(rb)
        r = self.uf.union(ra, rb)
        if pa is not None and pb is not None:
            self.pointee[r] = self._unify(pa, pb)
        elif pa is not None or pb is not None:
            self.pointee[r] = self.uf.find(pa if pa is not None else pb)
        return r

    def _ptr_class(self, v: Value):
        """Class of the *pointer value* v (what object it may denote)."""
        if isinstance(v, (GEPInst,)):
            return self._ptr_class(v.pointer)
        if isinstance(v, CastInst) and v.op == "bitcast":
            return self._ptr_class(v.value)
        return self._node(v)

    def _build(self, fn: Function) -> None:
        for arg in fn.args:
            if arg.type.is_pointer and not arg.is_noalias:
                self._unify(self._node(arg), self.external_class)
        for inst in fn.instructions():
            if isinstance(inst, LoadInst):
                if inst.type.is_pointer:
                    pcls = self._ptr_class(inst.pointer)
                    self._unify(self._node(inst), self._pointee_of(pcls))
            elif isinstance(inst, StoreInst):
                if inst.value.type.is_pointer:
                    pcls = self._ptr_class(inst.pointer)
                    self._unify(self._pointee_of(pcls),
                                self._ptr_class(inst.value))
            elif isinstance(inst, (PhiInst, SelectInst)):
                if inst.type.is_pointer:
                    srcs = (inst.operands if isinstance(inst, PhiInst)
                            else inst.operands[1:])
                    for s in srcs:
                        if s.type.is_pointer:
                            self._unify(self._node(inst), self._ptr_class(s))
            elif isinstance(inst, CallInst):
                # arguments escape; results come from anywhere
                for a in inst.args:
                    if a.type.is_pointer and not inst.is_pure():
                        self._unify(self._ptr_class(a), self.external_class)
                if inst.type.is_pointer:
                    self._unify(self._node(inst), self.external_class)

    def object_class(self, v: Value):
        base = underlying_object(v)
        if isinstance(base, (AllocaInst, GlobalVariable)):
            return self.uf.find(base)
        if isinstance(base, Argument) and base.is_noalias:
            return self.uf.find(base)
        return self.uf.find(self._ptr_class(base))


class CFLSteensAA(AliasAnalysisPass):
    name = "cfl-steens-aa"
    invalidation_scope = "function"

    def __init__(self):
        self._summaries: Dict[int, _SteensSummary] = {}

    def invalidate(self) -> None:
        self._summaries.clear()

    def invalidate_function(self, fn: Function) -> None:
        """Summaries are built from one function's IR alone, so a
        function-local change only stales that function's entry."""
        self._summaries.pop(fn.id, None)

    def _summary(self, fn: Function) -> _SteensSummary:
        s = self._summaries.get(fn.id)
        if s is None:
            s = _SteensSummary(fn)
            self._summaries[fn.id] = s
        return s

    def alias(self, a: MemoryLocation, b: MemoryLocation,
              fn: Optional[Function]) -> AliasResult:
        if fn is None:
            return AliasResult.MAY
        s = self._summary(fn)
        ca, cb = s.object_class(a.ptr), s.object_class(b.ptr)
        ext = s.uf.find(s.external_class)
        if ca is ext or cb is ext:
            return AliasResult.MAY
        if ca is not cb:
            return AliasResult.NO
        return AliasResult.MAY
