"""BasicAA: stateless, local reasoning about identified objects and GEPs.

This is the first and most important analysis in the chain, mirroring
LLVM's ``BasicAliasAnalysis``: distinct stack/global objects cannot
alias, ``noalias`` arguments alias nothing not based on them, and
same-base GEPs are disambiguated by constant-offset arithmetic.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    CallInst,
    CastInst,
    GEPInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
)
from ..ir.values import (
    Argument,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    Value,
)
from .aliasing import AliasAnalysisPass, AliasResult, underlying_object
from .memloc import LocationSize, MemoryLocation


#: runtime functions returning a fresh, noalias allocation
ALLOCATION_FNS = {"malloc", "calloc", "aligned_alloc"}


def is_noalias_call(v: Value) -> bool:
    return isinstance(v, CallInst) and v.callee_name in ALLOCATION_FNS


def is_identified_object(v: Value) -> bool:
    """Allocas, globals, and noalias calls (malloc) are distinct,
    identifiable allocations."""
    return isinstance(v, (AllocaInst, GlobalVariable)) or is_noalias_call(v)


def is_identified_function_local(v: Value) -> bool:
    return isinstance(v, AllocaInst) or (
        isinstance(v, Argument) and v.is_noalias)


def alloca_is_captured(alloca: AllocaInst, max_uses: int = 64) -> bool:
    """Conservative capture check: does the alloca's address escape?

    The address escapes if it is stored somewhere, passed to a call,
    returned, or converted to an integer.  GEP/bitcast chains are
    followed.
    """
    work: List[Value] = [alloca]
    seen = set()
    budget = max_uses
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
                if user.op in ("ptrtoint",):
                    return True
                work.append(user)
            elif isinstance(user, LoadInst):
                continue  # loading *from* the pointer doesn't capture it
            elif isinstance(user, StoreInst):
                if user.value is v:
                    return True  # address stored to memory
            elif isinstance(user, (CallInst, ReturnInst, PhiInst, SelectInst)):
                return True
            else:
                # comparisons etc. don't capture
                continue
    return False


Decomposed = Tuple[Value, int, Tuple[Tuple[Value, int], ...]]


def _linearize(index: Value, scale: int,
               depth: int = 4) -> Tuple[int, List[Tuple[Value, int]]]:
    """LLVM's GetLinearExpression in miniature: decompose an index into
    constant + sum of scaled variables, looking through add/sub/mul."""
    if isinstance(index, ConstantInt):
        return index.value * scale, []
    if depth > 0 and isinstance(index, BinaryInst):
        if index.op == "add":
            c1, v1 = _linearize(index.lhs, scale, depth - 1)
            c2, v2 = _linearize(index.rhs, scale, depth - 1)
            return c1 + c2, v1 + v2
        if index.op == "sub" and isinstance(index.rhs, ConstantInt):
            c1, v1 = _linearize(index.lhs, scale, depth - 1)
            return c1 - index.rhs.value * scale, v1
        if index.op == "mul":
            if isinstance(index.rhs, ConstantInt):
                return _linearize(index.lhs, scale * index.rhs.value,
                                  depth - 1)
            if isinstance(index.lhs, ConstantInt):
                return _linearize(index.rhs, scale * index.lhs.value,
                                  depth - 1)
        if index.op == "shl" and isinstance(index.rhs, ConstantInt) \
                and 0 <= index.rhs.value < 32:
            return _linearize(index.lhs, scale << index.rhs.value,
                              depth - 1)
    return 0, [(index, scale)]


def decompose_pointer(ptr: Value, max_depth: int = 12) -> Decomposed:
    """Walk GEP/bitcast chains: (base, const_byte_offset, var_parts).

    Variable indices are linearized (``i + 3`` becomes var ``i`` plus a
    constant byte offset) so structurally-related accesses cancel."""
    offset = 0
    var_parts: List[Tuple[Value, int]] = []
    v = ptr
    for _ in range(max_depth):
        if isinstance(v, GEPInst):
            try:
                base, c, vparts = v.decomposed()
            except TypeError:
                return v, offset, tuple(var_parts)
            offset += c
            for var, scale in vparts:
                lc, lv = _linearize(var, scale)
                offset += lc
                var_parts.extend(lv)
            v = base
        elif isinstance(v, CastInst) and v.op == "bitcast":
            v = v.value
        else:
            break
    # canonicalize variable parts so structurally equal sets cancel
    var_parts.sort(key=lambda p: (p[0].id, p[1]))
    return v, offset, tuple(var_parts)


def _cancel_common(a: Tuple, b: Tuple) -> Tuple[List, List]:
    la, lb = list(a), list(b)
    for item in list(la):
        if item in lb:
            la.remove(item)
            lb.remove(item)
    return la, lb


class BasicAA(AliasAnalysisPass):
    name = "basic-aa"

    def alias(self, a: MemoryLocation, b: MemoryLocation,
              fn: Optional[Function]) -> AliasResult:
        pa, pb = a.ptr, b.ptr
        if isinstance(pa, ConstantNull) or isinstance(pb, ConstantNull):
            return AliasResult.NO

        if pa is pb:
            if (a.size.has_value and b.size.has_value
                    and a.size.value == b.size.value and a.size.precise
                    and b.size.precise):
                return AliasResult.MUST
            return AliasResult.MUST  # same pointer: at least must-overlap

        base_a, off_a, var_a = decompose_pointer(pa)
        base_b, off_b, var_b = decompose_pointer(pb)

        if base_a is base_b:
            return self._alias_same_base(a, b, off_a, var_a, off_b, var_b)

        # Distinct identified objects never alias.
        if is_identified_object(base_a) and is_identified_object(base_b):
            return AliasResult.NO

        # noalias argument vs anything based on a different object.
        for x, other in ((base_a, base_b), (base_b, base_a)):
            if isinstance(x, Argument) and x.is_noalias:
                if other is not x:
                    # 'other' may still be *based on* x only via decompose,
                    # which we already handled (same base).  Different base
                    # implies not-based-on under our decomposition depth.
                    if isinstance(other, Argument) and not other.is_noalias:
                        return AliasResult.NO
                    if is_identified_object(other) or isinstance(
                            other, (Argument, LoadInst, CallInst)):
                        return AliasResult.NO

        # A non-captured local allocation (alloca or malloc-like call)
        # cannot alias pointers from outside (arguments, loaded pointers,
        # other call results).
        for x, other in ((base_a, base_b), (base_b, base_a)):
            if (isinstance(x, AllocaInst) or is_noalias_call(x)) \
                    and isinstance(other, (Argument, LoadInst, CallInst)):
                if other is x:
                    continue
                if not alloca_is_captured(x):
                    return AliasResult.NO

        # Alloca vs global never alias (handled above via identified
        # objects); everything else is unknown to local reasoning.
        return AliasResult.MAY

    def _alias_same_base(self, a: MemoryLocation, b: MemoryLocation,
                         off_a: int, var_a: Tuple, off_b: int,
                         var_b: Tuple) -> AliasResult:
        ra, rb = _cancel_common(var_a, var_b)
        if ra or rb:
            # A residual variable index could take any value: but if the
            # GCD of the residual scales cannot bridge the offset delta
            # modulo-wise, the accesses are disjoint (LLVM's GCD trick).
            delta = off_a - off_b
            scales = [s for _, s in ra + rb]
            if scales and a.size.has_value and b.size.has_value:
                g = 0
                for s in scales:
                    g = math.gcd(g, abs(s))
                if g > 0:
                    rem = delta % g
                    # access [rem, rem+size_a) vs [0, size_b) modulo g
                    if rem != 0:
                        if rem >= b.size.value and g - rem >= a.size.value:
                            return AliasResult.NO
            return AliasResult.MAY
        delta = off_a - off_b
        if delta == 0:
            if (a.size.has_value and b.size.has_value
                    and a.size.value == b.size.value
                    and a.size.precise and b.size.precise):
                return AliasResult.MUST
            if a.size.has_value or b.size.has_value:
                return AliasResult.PARTIAL
            return AliasResult.MUST
        if delta > 0:
            # a starts delta bytes above b
            if b.size.has_value and b.size.value <= delta:
                return AliasResult.NO
            if not b.size.has_value:
                return AliasResult.MAY
            return AliasResult.PARTIAL
        # b starts above a
        if a.size.has_value and a.size.value <= -delta:
            return AliasResult.NO
        if not a.size.has_value:
            return AliasResult.MAY
        return AliasResult.PARTIAL
