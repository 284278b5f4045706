"""New-PM-style analysis manager: ``PreservedAnalyses`` + fine-grained
invalidation.

Mirrors LLVM's new pass manager at the granularity this reproduction
needs.  Transformation passes no longer report a boolean ``changed``;
they return a :class:`PreservedAnalyses` describing which analyses
survive the transformation.  The :class:`AnalysisManager` owns

* per-function analyses — :class:`DominatorTreeAnalysis`,
  :class:`LoopAnalysis`, :class:`MemorySSAAnalysis` — keyed by
  ``(function, analysis id)`` and invalidated individually, and
* the alias-analysis chain, whose entries declare their own
  invalidation granularity via ``AliasAnalysisPass.invalidation_scope``
  (GlobalsAA's verdicts are fixed when the chain is built).

The payoff is the probing loop (paper §IV-B/C): hundreds of compiles
per run, each previously rebuilding DominatorTree/LoopInfo from scratch
whenever *any* pass changed *anything*.  CFG-preserving passes now
declare DT/LI preserved, so only MemorySSA rebuilds — the same
frame-inference discipline as Kogtenkov et al.'s change calculus
(PAPERS.md): reason about what a change *preserves*, not just that one
happened.

Invalidation is observable-behavior-neutral by construction:

* DT/LI are pure functions of the CFG, so preserving them across a
  non-CFG transformation cannot change any query answer;
* MemorySSA issues alias queries during construction (attributed to the
  'Memory SSA' pass in ORAQL dumps), so it is *never* preserved across
  a change — its rebuild schedule, and hence the query stream, is
  identical to the invalidate-everything referee's;
* per-function AA summaries (the CFL analyses) are dropped only for the
  changed function — rebuilding an unchanged function's summary would
  reproduce it bit-for-bit, so skipping the rebuild is unobservable.

Fine invalidation is the only mode a compile runs.  The
invalidate-everything behavior it replaced survives as
:class:`CoarseAnalysisManager`, the referee that the fuzz oracle's
``o3-coarse`` config and the invalidation benchmark compare against.

An opt-in ``verify_analyses`` mode recomputes DT/LI from scratch after
every pass that claims to preserve them and raises
:class:`AnalysisVerificationError` on any mismatch — catching passes
that lie about preservation.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

from ..analysis import DominatorTree, LoopInfo, MemorySSA
from ..ir.function import Function

if TYPE_CHECKING:  # pragma: no cover
    from .pass_manager import CompilationContext


class AnalysisVerificationError(Exception):
    """A pass claimed to preserve an analysis it actually invalidated."""


# -- analysis IDs ------------------------------------------------------------
#
# The classes themselves are the keys (LLVM's AnalysisKey pattern): a
# ``name`` for counters/reports and a ``run`` that builds the result.

class DominatorTreeAnalysis:
    """Immediate-dominator tree over the function's CFG."""

    name = "DominatorTree"

    @staticmethod
    def run(fn: Function, am: "AnalysisManager") -> DominatorTree:
        return DominatorTree(fn)


class LoopAnalysis:
    """Natural-loop forest; depends on :class:`DominatorTreeAnalysis`."""

    name = "LoopInfo"

    @staticmethod
    def run(fn: Function, am: "AnalysisManager") -> LoopInfo:
        return LoopInfo(fn, am.get(DominatorTreeAnalysis, fn))


class MemorySSAAnalysis:
    """MemorySSA with eager use optimization.  Construction issues alias
    queries, attributed to the 'Memory SSA' pass (Fig. 3), so this
    analysis is never preserved across a change: its build schedule is
    part of the observable ORAQL query stream."""

    name = "MemorySSA"

    @staticmethod
    def run(fn: Function, am: "AnalysisManager") -> MemorySSA:
        ctx = am.ctx
        ctx.announce("Memory SSA", fn)
        ctx.push_pass("Memory SSA")
        try:
            with ctx.timed("Memory SSA"):
                return MemorySSA(fn, ctx.aa, optimize_uses=True)
        finally:
            ctx.pop_pass()


FUNCTION_ANALYSES = (DominatorTreeAnalysis, LoopAnalysis, MemorySSAAnalysis)

#: Analyses that are pure functions of the CFG's block structure.  A pass
#: that only adds/moves/erases non-terminator instructions preserves these.
CFG_ANALYSES: FrozenSet[type] = frozenset(
    {DominatorTreeAnalysis, LoopAnalysis})


# -- PreservedAnalyses -------------------------------------------------------

class PreservedAnalyses:
    """What a transformation kept intact (LLVM's ``PreservedAnalyses``).

    ``all()`` means the pass changed nothing observable; ``none()``
    abandons everything; ``cfg()`` is the common middle ground — the
    pass mutated instructions but not the block graph, so DT/LI survive.
    """

    __slots__ = ("_all", "_ids")

    def __init__(self, all_preserved: bool = False,
                 ids: Iterable[type] = ()):
        self._all = all_preserved
        self._ids: FrozenSet[type] = frozenset(ids)

    # -- factories -------------------------------------------------------
    @classmethod
    def all(cls) -> "PreservedAnalyses":
        """The pass made no observable change: everything survives."""
        return cls(all_preserved=True)

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        """The pass may have changed anything: abandon every analysis."""
        return cls()

    @classmethod
    def cfg(cls) -> "PreservedAnalyses":
        """Instructions changed but the block graph did not: DT and LI
        survive, MemorySSA and AA state do not."""
        return cls(ids=CFG_ANALYSES)

    @classmethod
    def from_changed(cls, changed: bool, preserves_cfg: bool = False
                     ) -> "PreservedAnalyses":
        """Bridge for boolean-protocol code: ``changed=False`` preserves
        all; otherwise ``cfg()`` or ``none()`` per ``preserves_cfg``."""
        if not changed:
            return cls.all()
        return cls.cfg() if preserves_cfg else cls.none()

    # -- queries ---------------------------------------------------------
    def are_all_preserved(self) -> bool:
        return self._all

    def preserves(self, analysis_id: type) -> bool:
        return self._all or analysis_id in self._ids

    def __repr__(self) -> str:  # pragma: no cover
        if self._all:
            return "PreservedAnalyses.all()"
        names = sorted(i.name for i in self._ids)
        return f"PreservedAnalyses({names})"

    def __bool__(self) -> bool:
        raise TypeError(
            "PreservedAnalyses has no truth value: passes no longer "
            "return a boolean 'changed' — test .are_all_preserved() "
            "(False means the pass changed the IR)")


# -- the manager -------------------------------------------------------------

class AnalysisManager:
    """Owns cached analyses, with per-analysis invalidation and the
    bookkeeping the benchmarks report: how often each analysis was
    built, how often a cached result was served, and how many rebuilds
    fine-grained invalidation avoided (a cache hit on a result that
    already survived at least one invalidation event)."""

    def __init__(self, ctx: "CompilationContext"):
        self.ctx = ctx
        #: (fn.id, analysis id) -> analysis result
        self._function: Dict[Tuple[int, type], object] = {}
        #: (fn.id, analysis id) -> epoch at which the entry was cached
        self._stamp: Dict[Tuple[int, type], int] = {}
        #: bumped on every invalidation event (any non-all() result)
        self.epoch = 0
        self.builds: Counter = Counter()
        self.cache_hits: Counter = Counter()
        self.preserved_hits: Counter = Counter()
        #: the events of the pipeline step the function memo records:
        #: ``(analysis id, built)`` per :meth:`get`, and per
        #: invalidation the ``PreservedAnalyses`` (None: nothing
        #: preserved); None when no step records
        self.events: Optional[list] = None

    # -- access ----------------------------------------------------------
    def get(self, analysis_id: type, fn: Function):
        key = (fn.id, analysis_id)
        result = self._function.get(key)
        if result is None:
            result = analysis_id.run(fn, self)
            self._function[key] = result
            self._stamp[key] = self.epoch
            self.builds[analysis_id.name] += 1
            if self.events is not None:
                self.events.append((analysis_id, True))
        else:
            self.cache_hits[analysis_id.name] += 1
            if self._stamp[key] < self.epoch:
                # the entry survived an invalidation event: this hit is
                # a rebuild the legacy protocol would have paid for
                self.preserved_hits[analysis_id.name] += 1
            if self.events is not None:
                self.events.append((analysis_id, False))
        return result

    def cached(self, analysis_id: type, fn: Function):
        """The cached result, or None — never builds."""
        return self._function.get((fn.id, analysis_id))

    def restamp(self, fn: Function, stamps: Dict[type, int]) -> bool:
        """Count ``fn``'s cached analyses as cached at the given epochs
        (the history the function memo replayed for it); False, and no
        change, unless exactly the analyses ``stamps`` names are
        cached."""
        cached = {a for a in FUNCTION_ANALYSES
                  if (fn.id, a) in self._function}
        if cached != set(stamps):
            return False
        for analysis_id, epoch in stamps.items():
            self._stamp[(fn.id, analysis_id)] = epoch
        return True

    # -- invalidation ----------------------------------------------------
    def invalidate_function(self, fn: Function,
                            pa: Optional[PreservedAnalyses] = None) -> None:
        """A function-local change: drop ``fn``'s analyses that ``pa``
        does not preserve (``None`` preserves nothing).  Per-function AA
        summaries drop only ``fn``'s entry."""
        if pa is not None and pa.are_all_preserved():
            return
        self.epoch += 1
        if self.events is not None:
            self.events.append(pa)
        for analysis_id in FUNCTION_ANALYSES:
            if pa is None or not pa.preserves(analysis_id):
                self._drop((fn.id, analysis_id))
        for analysis in self.ctx.aa.analyses:
            if analysis.invalidation_scope == "function":
                analysis.invalidate_function(fn)

    def _drop(self, key: Tuple[int, type]) -> None:
        """Forget a cached result, releasing the ones with internal
        cycles (MemorySSA through its phis, LoopInfo through its
        nesting) so that they are freed by reference counting.  A pass
        may still walk a loop's blocks after invalidating its LoopInfo
        (the loop vectorizer does); those stay."""
        result = self._function.pop(key, None)
        release = getattr(result, "release", None)
        if release is not None:
            release()

    def release(self) -> None:
        """Drop every cached result and forget the context (see
        :meth:`CompilationContext.release`); the counters stay
        readable."""
        for key in list(self._function):
            self._drop(key)
        self._stamp.clear()
        self.ctx = None

    # -- verification ----------------------------------------------------
    def verify_preserved(self, fn: Function, pass_name: str) -> None:
        """Recompute-and-compare every cached CFG analysis of ``fn``
        against a from-scratch build; raise if a preserved analysis is
        stale (the pass lied about preservation)."""
        dt = self.cached(DominatorTreeAnalysis, fn)
        if dt is not None:
            fresh = DominatorTree(fn)
            if not _same_domtree(dt, fresh):
                raise AnalysisVerificationError(
                    f"pass '{pass_name}' claimed to preserve DominatorTree "
                    f"of @{fn.name} but the CFG changed")
        li = self.cached(LoopAnalysis, fn)
        if li is not None:
            fresh_li = LoopInfo(fn, dt if dt is not None
                                else DominatorTree(fn))
            if not _same_loopinfo(li, fresh_li):
                raise AnalysisVerificationError(
                    f"pass '{pass_name}' claimed to preserve LoopInfo "
                    f"of @{fn.name} but the loop structure changed")

    # -- reporting -------------------------------------------------------
    def counters(self) -> Dict[str, Dict[str, int]]:
        return {
            "builds": dict(self.builds),
            "cache_hits": dict(self.cache_hits),
            "preserved_hits": dict(self.preserved_hits),
        }

    def merge_counters(self, other: "AnalysisManager") -> None:
        self.builds.update(other.builds)
        self.cache_hits.update(other.cache_hits)
        self.preserved_hits.update(other.preserved_hits)


class CoarseAnalysisManager(AnalysisManager):
    """The invalidate-everything referee: any change drops every cached
    analysis of the function and every per-function AA summary.  Fine
    invalidation must build the same executable and issue the same
    query stream (the fuzz oracle's ``o3-coarse`` and the invalidation
    benchmark); only the rebuild counters may differ."""

    def invalidate_function(self, fn: Function,
                            pa: Optional[PreservedAnalyses] = None) -> None:
        if pa is not None and pa.are_all_preserved():
            return
        self.epoch += 1
        if self.events is not None:
            self.events.append(None)
        for analysis_id in FUNCTION_ANALYSES:
            self._drop((fn.id, analysis_id))
        for analysis in self.ctx.aa.analyses:
            if analysis.invalidation_scope != "none":
                analysis.invalidate()


def _same_domtree(a: DominatorTree, b: DominatorTree) -> bool:
    if a.rpo != b.rpo:
        return False
    if set(map(id, a.idom)) != set(map(id, b.idom)):
        return False
    return all(a.idom[bb] is b.idom[bb] for bb in a.idom)


def _same_loopinfo(a: LoopInfo, b: LoopInfo) -> bool:
    def shape(li: LoopInfo):
        return sorted((id(l.header), frozenset(map(id, l.blocks)))
                      for l in li.loops)
    return shape(a) == shape(b)
