"""The ORAQL alias-analysis pass (paper §IV-A).

"Alias analysis pass" is a misnomer: no analysis is performed.  The pass
is appended as the *final* analysis in the chain, so it only sees queries
no existing analysis could answer, and it replies according to a
predetermined decision sequence:

* a **query cache** keyed on the (unordered) pointer pair — deliberately
  ignoring the location descriptions — serves repeated queries without
  consuming sequence entries, shortening the sequence to probe and
  keeping optimistic responses self-consistent;
* a cache miss consumes the next sequence bit (1 = no-alias, 0 =
  may-alias); past the end of the sequence every unique query is
  answered optimistically;
* ``-opt-aa-target=<substring>`` restricts the pass to functions whose
  target matches (device-only probing, §IV-E), and the probing scope can
  be limited to chosen source files / functions (§IV-B);
* four dump flags ``-opt-aa-dump-{first,cached}`` ×
  ``{optimistic,pessimistic}`` emit Fig.-3-style reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.aliasing import AliasResult
from ..analysis.memloc import MemoryLocation
from ..ir.function import Function
from ..ir.instructions import AllocaInst, CallInst, Instruction, PhiInst
from ..ir.printer import format_instruction
from .sequence import DecisionSequence


@dataclass
class DumpFlags:
    """Which queries to print (at least one of each axis is needed for
    any output, §IV-D)."""

    first: bool = False
    cached: bool = False
    optimistic: bool = False
    pessimistic: bool = False

    def any(self) -> bool:
        return (self.first or self.cached) and (
            self.optimistic or self.pessimistic)


@dataclass
class QueryRecord:
    """One ORAQL query, as recorded for reporting (§IV-D)."""

    index: int                      # unique-query index (-1 for cached)
    optimistic: bool
    cached: bool
    cache_hits: int
    a: MemoryLocation
    b: MemoryLocation
    scope: str                      # containing function
    issuing_pass: str

    def render(self) -> List[str]:
        kind = "Optimistic" if self.optimistic else "Pessimistic"
        lines = [f"[ORAQL] {kind} query [Cached {1 if self.cached else 0}]"]
        for loc in (self.a, self.b):
            lines.append(f"[ORAQL] - {_describe(loc)}")
        lines.append(f"[ORAQL] Scope: {self.scope}")
        da = getattr(self.a.ptr, "dbg", None)
        db = getattr(self.b.ptr, "dbg", None)
        if da is not None:
            lines.append(f"[ORAQL] LocA: {da}")
        if db is not None:
            lines.append(f"[ORAQL] LocB: {db}")
        return lines


#: the pointer instructions whose text reads no operand
_OPERAND_FREE = (AllocaInst, CallInst, PhiInst)


def _describe(loc: MemoryLocation) -> str:
    ptr = loc.ptr
    if not isinstance(ptr, Instruction):
        body = f"{ptr.type} {ptr.short()}"
    elif ptr.parent is None and not ptr.operands \
            and not isinstance(ptr, _OPERAND_FREE):
        # erased by a later pass, which dropped the operands its text
        # would print
        body = f"{ptr.type} {ptr.short()} (erased {ptr.opcode})"
    else:
        body = format_instruction(ptr)
    return f"{body} [{loc.size}]"


class OraqlAAPass:
    """The last-resort alias analysis driven by a decision sequence."""

    name = "oraql-aa"

    def __init__(self, sequence: Optional[DecisionSequence] = None,
                 target_filter: Optional[str] = None,
                 probe_functions: Optional[Set[str]] = None,
                 probe_files: Optional[Set[str]] = None,
                 dump: Optional[DumpFlags] = None,
                 enabled: bool = True,
                 cache_enabled: bool = True):
        self.sequence = sequence if sequence is not None else DecisionSequence()
        self.target_filter = target_filter
        self.probe_functions = probe_functions
        self.probe_files = probe_files
        self.dump = dump or DumpFlags()
        self.enabled = enabled
        #: the paper's query cache (§IV-A).  Disabling it is the
        #: ablation: every repeated query then consumes its own sequence
        #: entry, inflating the search space and risking inconsistent
        #: answers for the same pointer pair.
        self.cache_enabled = cache_enabled
        self.ctx = None  # CompilationContext, set via attach()

        # cache keyed on the unordered pointer pair (ids), sizes ignored;
        # values are (optimistic, unique-query index) so a cache hit can
        # be traced back to the sequence entry that decided it
        self.cache: Dict[FrozenSet[int], Tuple[bool, int]] = {}
        self._records: List[QueryRecord] = []
        #: the compiled program's replayed functions that have no body
        #: yet (:class:`~repro.oraql.fnmemo.Handover`): records point
        #: into bodies, so the first read of :attr:`records` takes them
        self.handover = None
        # Fig. 4 counters
        self.opt_unique = 0
        self.opt_cached = 0
        self.pess_unique = 0
        self.pess_cached = 0
        # per-issuing-pass unique-query attribution (§V-D breakdown)
        self.unique_by_pass: Dict[str, int] = {}

    # -- wiring -----------------------------------------------------------
    def attach(self, ctx) -> None:
        self.ctx = ctx

    def wants_dump(self) -> bool:
        return self.dump.any()

    # -- scope ------------------------------------------------------------
    def applies_to(self, fn: Optional[Function]) -> bool:
        if not self.enabled:
            return False
        if fn is None:
            return False
        if self.target_filter is not None and \
                self.target_filter not in fn.target:
            return False
        if self.probe_functions is not None:
            # outlined OpenMP regions belong to their parent function
            base = fn.name.split(".omp_outlined")[0]
            if fn.name not in self.probe_functions \
                    and base not in self.probe_functions:
                return False
        if self.probe_files is not None:
            src = fn.source_file
            if src is None or src not in self.probe_files:
                return False
        return True

    # -- the answer -----------------------------------------------------------
    def answer(self, a: MemoryLocation, b: MemoryLocation,
               fn: Optional[Function], issuing_pass: str) -> AliasResult:
        trace = self.ctx.trace if self.ctx is not None else None
        scope = fn.name if fn is not None else "<module>"
        if not self.applies_to(fn):
            if trace is not None:
                trace.oraql_skip(scope, a, b)
            return AliasResult.MAY

        return self.decide(frozenset((a.ptr.id, b.ptr.id)), a, b, scope,
                           issuing_pass)

    def decide(self, key, a: Optional[MemoryLocation],
               b: Optional[MemoryLocation], scope: str,
               issuing_pass: str) -> AliasResult:
        """Answer an in-scope query by its cache ``key``: from the cache,
        else from the next sequence entry.  The key is the unordered
        pointer pair in any form that tells pointers apart as identity
        does; the function memo (:mod:`repro.oraql.fnmemo`) passes its
        own compile-stable form, and commits replayed queries with no
        locations (it sets their records' locations afterwards)."""
        trace = self.ctx.trace if self.ctx is not None else None
        if self.cache_enabled and key in self.cache:
            optimistic, index = self.cache[key]
            if optimistic:
                self.opt_cached += 1
            else:
                self.pess_cached += 1
            if trace is not None:
                trace.oraql_query(scope, a, b, optimistic, cached=True,
                                  index=index)
            if self.dump.cached and (
                    (optimistic and self.dump.optimistic)
                    or (not optimistic and self.dump.pessimistic)):
                rec = QueryRecord(-1, optimistic, True, 1, a, b, scope,
                                  issuing_pass)
                self._emit(rec)
            return AliasResult.NO if optimistic else AliasResult.MAY

        index = self.sequence.consumed
        optimistic = self.sequence.next()
        self.cache[key] = (optimistic, index)
        if trace is not None:
            trace.oraql_query(scope, a, b, optimistic, cached=False,
                              index=index)
        if optimistic:
            self.opt_unique += 1
        else:
            self.pess_unique += 1
        self.unique_by_pass[issuing_pass] = \
            self.unique_by_pass.get(issuing_pass, 0) + 1
        rec = QueryRecord(index, optimistic, False, 0, a, b, scope,
                          issuing_pass)
        self._records.append(rec)
        if self.dump.first and (
                (optimistic and self.dump.optimistic)
                or (not optimistic and self.dump.pessimistic)):
            self._emit(rec)
        return AliasResult.NO if optimistic else AliasResult.MAY

    def _emit(self, rec: QueryRecord) -> None:
        lines = rec.render()
        if self.ctx is not None:
            for line in lines:
                self.ctx.log(line)

    @property
    def records(self) -> List[QueryRecord]:
        """The record of every unique query, in index order."""
        if self.handover is not None:
            handover, self.handover = self.handover, None
            handover.take_all()
        return self._records

    def release(self) -> None:
        """Forget the records, which point into the program's IR."""
        self.handover = None
        self._records.clear()

    # -- statistics reported back to the driver (LLVM -stats, §IV-A) -------
    @property
    def unique_queries(self) -> int:
        return self.opt_unique + self.pess_unique

    @property
    def cached_queries(self) -> int:
        return self.opt_cached + self.pess_cached

    def statistics(self) -> Dict[str, int]:
        return {
            "unique queries": self.unique_queries,
            "cached queries": self.cached_queries,
            "optimistic unique": self.opt_unique,
            "optimistic cached": self.opt_cached,
            "pessimistic unique": self.pess_unique,
            "pessimistic cached": self.pess_cached,
        }

    def pessimistic_records(self) -> List[QueryRecord]:
        """The pessimistic records, in index order.  Of the replayed
        functions that wait for a body, only those a pessimistic record
        names take theirs (none on a fully optimistic program); a later
        read of :attr:`records` takes the rest."""
        pessimistic = [r for r in self._records if not r.optimistic]
        if self.handover is not None and pessimistic:
            self.handover.take_named({r.scope for r in pessimistic})
        return pessimistic
