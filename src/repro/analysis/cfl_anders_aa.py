"""CFL-Andersen-style inclusion-based points-to alias analysis.

Flow-insensitive, intraprocedural, field-insensitive, solved with the
classic worklist over subset constraints [35, 36].  More precise and more
expensive than Steensgaard; off by default (as in LLVM 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

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


class _AndersSummary:
    """Constraint graph + fixed-point points-to sets for one function."""

    def __init__(self, fn: Function):
        # pts: node -> set of objects; objects are Value ids or EXTERNAL
        self.pts: Dict[object, Set[object]] = {}
        self.copy_edges: Dict[object, Set[object]] = {}  # src -> dsts
        self.load_edges: Dict[object, Set[object]] = {}  # p -> dsts (dst ⊇ *p)
        self.store_edges: Dict[object, Set[object]] = {}  # p -> srcs (*p ⊇ src)
        self.content: Dict[object, Set[object]] = {}  # object -> contents
        self.escaped: Set[object] = set()
        self._build(fn)
        self._solve()

    # -- graph construction -------------------------------------------------
    def _key(self, v: Value):
        if isinstance(v, GEPInst):
            return self._key(v.pointer)
        if isinstance(v, CastInst) and v.op == "bitcast":
            return self._key(v.value)
        return v

    def _seed(self, v: Value) -> object:
        k = self._key(v)
        if k not in self.pts:
            self.pts[k] = set()
            if isinstance(k, (AllocaInst, GlobalVariable)):
                self.pts[k].add(k)
            elif isinstance(k, Argument):
                if k.is_noalias:
                    self.pts[k].add(k)  # its own private object
                else:
                    self.pts[k].add(EXTERNAL)
            elif isinstance(k, CallInst):
                self.pts[k].add(EXTERNAL)
        return k

    def _copy(self, src: Value, dst: Value) -> None:
        self.copy_edges.setdefault(self._seed(src), set()).add(self._seed(dst))

    def _build(self, fn: Function) -> None:
        for inst in fn.instructions():
            if isinstance(inst, LoadInst) and inst.type.is_pointer:
                self.load_edges.setdefault(
                    self._seed(inst.pointer), set()).add(self._seed(inst))
            elif isinstance(inst, StoreInst) and inst.value.type.is_pointer:
                self.store_edges.setdefault(
                    self._seed(inst.pointer), set()).add(self._seed(inst.value))
            elif isinstance(inst, PhiInst) and inst.type.is_pointer:
                for v in inst.operands:
                    if v.type.is_pointer:
                        self._copy(v, inst)
            elif isinstance(inst, SelectInst) and inst.type.is_pointer:
                for v in inst.operands[1:]:
                    self._copy(v, inst)
            elif isinstance(inst, CallInst) and not inst.is_pure():
                # every object reachable from a pointer passed to an opaque
                # call escapes; the escape worklist in _solve propagates
                for a in inst.args:
                    if a.type.is_pointer:
                        k = self._seed(a)
                        self._escapes_from = getattr(self, "_escapes_from", [])
                        self._escapes_from.append(k)

    # -- fixed point -------------------------------------------------------
    def _solve(self) -> None:
        changed = True
        escapes_from: List[object] = getattr(self, "_escapes_from", [])
        # bound iterations defensively; graphs are tiny per function
        for _ in range(10_000):
            changed = False
            # copy edges
            for src, dsts in self.copy_edges.items():
                s = self.pts.get(src, set())
                for d in dsts:
                    t = self.pts.setdefault(d, set())
                    if not s <= t:
                        t |= s
                        changed = True
            # load edges: dst ⊇ content(o) for o in pts(p)
            for p, dsts in self.load_edges.items():
                for o in list(self.pts.get(p, ())):
                    c = (self.content.setdefault(o, {EXTERNAL})
                         if o == EXTERNAL else self.content.setdefault(o, set()))
                    for d in dsts:
                        t = self.pts.setdefault(d, set())
                        if not c <= t:
                            t |= c
                            changed = True
            # store edges: content(o) ⊇ pts(src) for o in pts(p)
            for p, srcs in self.store_edges.items():
                for o in list(self.pts.get(p, ())):
                    c = self.content.setdefault(o, set())
                    for src in srcs:
                        s = self.pts.get(src, set())
                        if not s <= c:
                            c |= s
                            changed = True
            # escapes: objects reachable from escaping pointers
            for k in escapes_from:
                for o in list(self.pts.get(k, ())):
                    if o != EXTERNAL and o not in self.escaped:
                        self.escaped.add(o)
                        self.content.setdefault(o, set()).add(EXTERNAL)
                        changed = True
            # escaped objects may be written through external pointers
            for o in list(self.escaped):
                c = self.content.setdefault(o, set())
                if EXTERNAL not in c:
                    c.add(EXTERNAL)
                    changed = True
            if not changed:
                break

    # -- queries ------------------------------------------------------------
    def points_to(self, v: Value) -> Set[object]:
        base = underlying_object(v)
        k = self._key(base)
        if k in self.pts:
            return self.pts[k]
        if isinstance(k, (AllocaInst, GlobalVariable)):
            return {k}
        return {EXTERNAL}

    def may_alias(self, a: Value, b: Value) -> bool:
        pa, pb = self.points_to(a), self.points_to(b)
        if pa & pb:
            return True
        if EXTERNAL in pa and (EXTERNAL in pb or any(
                o in self.escaped for o in pb)):
            return True
        if EXTERNAL in pb and any(o in self.escaped for o in pa):
            return True
        return False


class CFLAndersAA(AliasAnalysisPass):
    name = "cfl-anders-aa"
    invalidation_scope = "function"

    def __init__(self):
        self._summaries: Dict[int, _AndersSummary] = {}

    def invalidate(self) -> None:
        self._summaries.clear()

    def invalidate_function(self, fn: Function) -> None:
        """Summaries are built from one function's IR alone, so a
        function-local change only stales that function's entry."""
        self._summaries.pop(fn.id, None)

    def _summary(self, fn: Function) -> _AndersSummary:
        s = self._summaries.get(fn.id)
        if s is None:
            s = _AndersSummary(fn)
            self._summaries[fn.id] = s
        return s

    def alias(self, a: MemoryLocation, b: MemoryLocation,
              fn: Optional[Function]) -> AliasResult:
        if fn is None:
            return AliasResult.MAY
        s = self._summary(fn)
        if not s.may_alias(a.ptr, b.ptr):
            return AliasResult.NO
        return AliasResult.MAY
