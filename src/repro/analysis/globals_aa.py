"""GlobalsAA: module-level reasoning about non-address-taken globals.

A global whose address is only ever used directly in loads, stores (as
the *pointer*), and GEPs cannot be the target of any pointer that flows
through memory, arguments, or calls — so such pointers never alias it.

The verdicts are computed for every global when the analysis is built
for a compile, before the first alias query, as LLVM's module analysis
is: no verdict depends on which functions earlier pipeline steps have
already rewritten, so a function's pipeline depends on its own body
alone (see :mod:`repro.oraql.fnmemo`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    CastInst,
    GEPInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Argument, GlobalVariable, Value
from .aliasing import AliasAnalysisPass, AliasResult, underlying_object
from .memloc import MemoryLocation


def global_is_address_taken(gv: GlobalVariable, budget: int = 128) -> bool:
    work = [gv]
    seen: Set[Value] = set()
    while work:
        v = work.pop()
        if v in seen:
            continue
        seen.add(v)
        for user in v.users:
            budget -= 1
            if budget <= 0:
                return True
            if isinstance(user, (GEPInst,)):
                work.append(user)
            elif isinstance(user, CastInst):
                if user.op == "ptrtoint":
                    return True
                work.append(user)
            elif isinstance(user, LoadInst):
                continue
            elif isinstance(user, StoreInst):
                if user.value is v:
                    return True
            elif isinstance(user, (CallInst, ReturnInst, PhiInst, SelectInst)):
                return True
    return False


class GlobalsAA(AliasAnalysisPass):
    """The address-taken verdict per global, by name, fixed for the
    compile when the analysis is built from ``module``; no invalidation
    drops it.  ``module`` may be a copy of the compiled module from
    before its pipeline (a compile's kept prefix); the analysis does not
    hold on to it."""

    name = "globals-aa"
    requires_module = True

    def __init__(self, module: Optional[Module] = None):
        self._cache: Dict[str, bool] = {} if module is None else {
            name: global_is_address_taken(gv)
            for name, gv in module.globals.items()}

    def _address_taken(self, gv: GlobalVariable) -> bool:
        hit = self._cache.get(gv.name)
        if hit is None:  # a global the module did not have when built
            hit = self._cache[gv.name] = global_is_address_taken(gv)
        return hit

    def alias(self, a: MemoryLocation, b: MemoryLocation,
              fn: Optional[Function]) -> AliasResult:
        ua = underlying_object(a.ptr)
        ub = underlying_object(b.ptr)
        for g, other in ((ua, ub), (ub, ua)):
            if isinstance(g, GlobalVariable) and not self._address_taken(g):
                if isinstance(other, (Argument, LoadInst, CallInst)):
                    return AliasResult.NO
        return AliasResult.MAY
