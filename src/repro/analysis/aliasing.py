"""The alias-analysis framework: results, the chain, and mod/ref info.

Semantics mirror LLVM's ``AAResults`` aggregation (paper §III): analyses
are consulted in a fixed order; the first definite answer (``no`` /
``must`` / ``partial``) wins; if every analysis answers ``may``, the
aggregate result is ``may`` — unless an ORAQL pass is appended, in which
case the residual query is delegated to it.

The chain also keeps the counters the evaluation reports (Fig. 4):
the total number of ``no-alias`` responses across *all* analyses, and
per-pass attribution of who issued each query.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import List, Optional

from ..ir import instructions as _ir
from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    CastInst,
    GEPInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    SelectInst,
    StoreInst,
)
from ..ir.values import Value
from .memloc import MemoryLocation


class AliasResult(enum.Enum):
    """The four-valued answer of an alias query."""

    NO = "NoAlias"
    MAY = "MayAlias"
    PARTIAL = "PartialAlias"
    MUST = "MustAlias"

    def __str__(self) -> str:
        return self.value


class ModRefInfo(enum.Flag):
    """Whether an instruction may read (Ref) / write (Mod) a location."""

    NO = 0
    REF = enum.auto()
    MOD = enum.auto()
    MODREF = REF | MOD


class AliasAnalysisPass:
    """Base class for one analysis in the chain."""

    name: str = "aa"

    #: True when the constructor takes the module (e.g. GlobalsAA).  The
    #: context dispatches on this explicitly instead of the old
    #: ``try: cls(module) except TypeError: cls()`` probe, which
    #: swallowed genuine TypeErrors raised *inside* a constructor.
    requires_module: bool = False

    #: Granularity of any cached state, driving fine-grained
    #: invalidation:
    #:
    #: * ``"none"`` — never needs invalidation: stateless, or state
    #:   fixed for the compile when the analysis is built (GlobalsAA);
    #: * ``"function"`` — per-function summaries: implement
    #:   ``invalidate_function(fn)``, called when ``fn`` changes, and
    #:   ``invalidate()`` (the coarse referee's).
    invalidation_scope: str = "none"

    def alias(self, a: MemoryLocation, b: MemoryLocation,
              fn: Optional[Function]) -> AliasResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AA {self.name}>"


class AAResults:
    """The per-module AA chain with counters and pass attribution.

    ``current_pass`` is maintained by the pass manager (the way LLVM's
    ``-debug-pass=Executions`` identifies the issuing pass for ORAQL's
    dump, paper §IV-D).
    """

    def __init__(self, analyses: List[AliasAnalysisPass],
                 oraql: Optional["object"] = None,
                 override: Optional["object"] = None):
        self.analyses = list(analyses)
        self.oraql = oraql  # OraqlAAPass | None; consulted last
        #: OraqlOverridePass | None; consulted FIRST — may hide the
        #: chain's answers entirely (the paper's §VIII design)
        self.override = override
        self.current_pass: str = "<none>"
        self.current_function: Optional[Function] = None
        #: optional QueryTrace sink (repro.trace); None = tracing off.
        #: Strictly observational: no emission influences any answer.
        self.trace = None
        # counters (Fig. 4 columns)
        self.no_alias_count = 0
        self.must_alias_count = 0
        self.total_queries = 0
        self.no_alias_by_pass: Counter = Counter()
        self.queries_by_issuer: Counter = Counter()

    # -- the core query -------------------------------------------------------
    def alias(self, a: MemoryLocation, b: MemoryLocation) -> AliasResult:
        fn = self.current_function
        fn_name = fn.name if fn is not None else "<module>"
        self.total_queries += 1
        self.queries_by_issuer[self.current_pass] += 1
        if self.override is not None and \
                self.override.should_force_may(a, b, fn):
            if self.trace is not None:
                from ..trace.events import RESPONDER_OVERRIDE
                self.trace.chain_query(fn_name, a, b, RESPONDER_OVERRIDE,
                                       str(AliasResult.MAY))
            return AliasResult.MAY
        for analysis in self.analyses:
            r = analysis.alias(a, b, fn)
            if r is not AliasResult.MAY:
                self._record(r, analysis.name)
                if self.trace is not None:
                    self.trace.chain_query(fn_name, a, b, analysis.name,
                                           str(r))
                return r
        if self.oraql is not None:
            # the ORAQL pass emits its own trace event (it alone knows
            # cache-hit status and the unique-query index — and its
            # pessimistic answers return MAY, indistinguishable here
            # from "not applicable")
            r = self.oraql.answer(a, b, fn, self.current_pass)
            if r is not AliasResult.MAY:
                self._record(r, self.oraql.name)
                return r
            return AliasResult.MAY
        if self.trace is not None:
            from ..trace.events import RESPONDER_NONE
            self.trace.chain_query(fn_name, a, b, RESPONDER_NONE,
                                   str(AliasResult.MAY))
        return AliasResult.MAY

    def _record(self, r: AliasResult, source: str) -> None:
        if r is AliasResult.NO:
            self.no_alias_count += 1
            self.no_alias_by_pass[source] += 1
        elif r is AliasResult.MUST:
            self.must_alias_count += 1

    # -- mod/ref ---------------------------------------------------------
    def get_mod_ref(self, inst: Instruction, loc: MemoryLocation) -> ModRefInfo:
        """May ``inst`` read/write the memory at ``loc``?"""
        if isinstance(inst, LoadInst):
            if self.alias(MemoryLocation.get(inst), loc) is AliasResult.NO:
                return ModRefInfo.NO
            return ModRefInfo.REF
        if isinstance(inst, StoreInst):
            if self.alias(MemoryLocation.get(inst), loc) is AliasResult.NO:
                return ModRefInfo.NO
            return ModRefInfo.MOD
        if isinstance(inst, MemCpyInst):
            mr = ModRefInfo.NO
            if self.alias(MemoryLocation.for_dst(inst), loc) is not AliasResult.NO:
                mr |= ModRefInfo.MOD
            if self.alias(MemoryLocation.for_src(inst), loc) is not AliasResult.NO:
                mr |= ModRefInfo.REF
            return mr
        if isinstance(inst, MemSetInst):
            if self.alias(MemoryLocation.for_dst(inst), loc) is AliasResult.NO:
                return ModRefInfo.NO
            return ModRefInfo.MOD
        if isinstance(inst, CallInst):
            if inst.is_pure():
                return ModRefInfo.NO
            if inst.only_reads_memory():
                return ModRefInfo.REF
            return ModRefInfo.MODREF
        if inst.may_write_memory():
            return ModRefInfo.MODREF
        if inst.may_read_memory():
            return ModRefInfo.REF
        return ModRefInfo.NO

    def merge(self, other: "AAResults") -> None:
        """Fold another chain's counters into this one (per-TU compiles
        report through a single context; the audited merge lives here
        instead of being re-implemented at each call site)."""
        if other is self:
            return
        self.no_alias_count += other.no_alias_count
        self.must_alias_count += other.must_alias_count
        self.total_queries += other.total_queries
        self.no_alias_by_pass.update(other.no_alias_by_pass)
        self.queries_by_issuer.update(other.queries_by_issuer)


def underlying_object(ptr: Value) -> Value:
    """Strip GEPs / bitcasts / pointer-select-with-same-base to the base
    object (LLVM's ``getUnderlyingObject``).  The result is kept on the
    pointer and reused while the IR mutation epoch holds (see
    ``repro.ir.instructions.epoch``)."""
    if not isinstance(ptr, (GEPInst, CastInst, SelectInst)):
        return ptr
    memo = ptr._underlying
    epoch = _ir.epoch
    if memo is not None and memo[0] == epoch:
        return memo[1]
    u = _underlying(ptr)
    ptr._underlying = (epoch, u)
    return u


def _underlying(ptr: Value, max_lookup: int = 12) -> Value:
    """:func:`underlying_object` computed afresh."""
    seen = 0
    v = ptr
    while seen < max_lookup:
        seen += 1
        if isinstance(v, GEPInst):
            v = v.pointer
        elif isinstance(v, CastInst) and v.op == "bitcast":
            v = v.value
        elif isinstance(v, SelectInst):
            t, f = v.operands[1], v.operands[2]
            ut, uf = _underlying(t, max_lookup - seen), _underlying(
                f, max_lookup - seen)
            if ut is uf:
                return ut
            return v
        else:
            return v
    return v
