"""New-PM-style analysis manager: ``PreservedAnalyses`` + fine-grained
invalidation.

Mirrors LLVM's new pass manager at the granularity this reproduction
needs.  Transformation passes no longer report a boolean ``changed``;
they return a :class:`PreservedAnalyses` describing which analyses
survive the transformation.  The :class:`AnalysisManager` owns

* per-function analyses — :class:`DominatorTreeAnalysis`,
  :class:`LoopAnalysis`, :class:`MemorySSAAnalysis` — keyed by
  ``(function, analysis id)`` and invalidated individually, and
* the module-level alias-analysis chain (incl. GlobalsAA), whose
  entries declare their own invalidation granularity via
  ``AliasAnalysisPass.invalidation_scope``.

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
  identical to the legacy invalidate-everything behavior;
* per-function AA summaries (the CFL analyses) are dropped only for the
  changed function — rebuilding an unchanged function's summary would
  reproduce it bit-for-bit, so skipping the rebuild is unobservable.

An opt-in ``verify_analyses`` mode recomputes DT/LI from scratch after
every pass that claims to preserve them and raises
:class:`AnalysisVerificationError` on any mismatch — catching passes
that lie about preservation.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Set, Tuple

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

    Module passes additionally report ``modified_functions``: the exact
    set of functions they touched, letting ``verify_each`` and
    invalidation scope to those functions instead of the whole module
    (``None`` means "unknown — assume everything").
    """

    __slots__ = ("_all", "_ids", "modified_functions")

    def __init__(self, all_preserved: bool = False,
                 ids: Iterable[type] = (),
                 modified_functions: Optional[Set[Function]] = None):
        self._all = all_preserved
        self._ids: FrozenSet[type] = frozenset(ids)
        self.modified_functions = modified_functions

    # -- factories -------------------------------------------------------
    @classmethod
    def all(cls) -> "PreservedAnalyses":
        """The pass made no observable change: everything survives."""
        return cls(all_preserved=True)

    @classmethod
    def none(cls, modified_functions: Optional[Set[Function]] = None
             ) -> "PreservedAnalyses":
        """The pass may have changed anything: abandon every analysis."""
        return cls(modified_functions=modified_functions)

    @classmethod
    def cfg(cls, modified_functions: Optional[Set[Function]] = None
            ) -> "PreservedAnalyses":
        """Instructions changed but the block graph did not: DT and LI
        survive, MemorySSA and AA state do not."""
        return cls(ids=CFG_ANALYSES, modified_functions=modified_functions)

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

    # -- composition -----------------------------------------------------
    def intersect(self, other: "PreservedAnalyses") -> "PreservedAnalyses":
        """The analyses preserved by *both* transformations, with the
        union of their modified-function sets."""
        if self._all and other._all:
            mods = self._merge_mods(other)
            return (PreservedAnalyses.all() if mods is None and
                    self.modified_functions is None and
                    other.modified_functions is None
                    else PreservedAnalyses(True, (), mods))
        a = self._ids if not self._all else other._ids
        b = other._ids if not other._all else self._ids
        return PreservedAnalyses(False, a & b, self._merge_mods(other))

    def _merge_mods(self, other: "PreservedAnalyses"
                    ) -> Optional[Set[Function]]:
        if self.modified_functions is None and \
                other.modified_functions is None:
            return None
        if self.modified_functions is None:
            # all() contributes no modifications; anything else unknown
            return (set(other.modified_functions)
                    if self._all else None)
        if other.modified_functions is None:
            return (set(self.modified_functions)
                    if other._all else None)
        return set(self.modified_functions) | set(other.modified_functions)

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

    # -- access ----------------------------------------------------------
    def get(self, analysis_id: type, fn: Function):
        key = (fn.id, analysis_id)
        result = self._function.get(key)
        if result is None:
            result = analysis_id.run(fn, self)
            self._function[key] = result
            self._stamp[key] = self.epoch
            self.builds[analysis_id.name] += 1
        else:
            self.cache_hits[analysis_id.name] += 1
            if self._stamp[key] < self.epoch:
                # the entry survived an invalidation event: this hit is
                # a rebuild the legacy protocol would have paid for
                self.preserved_hits[analysis_id.name] += 1
        return result

    def cached(self, analysis_id: type, fn: Function):
        """The cached result, or None — never builds."""
        return self._function.get((fn.id, analysis_id))

    # -- invalidation ----------------------------------------------------
    def invalidate_function(self, fn: Function,
                            pa: Optional[PreservedAnalyses] = None) -> None:
        """A function-local change: drop ``fn``'s analyses that ``pa``
        does not preserve.  Module-level AA state is invalidated at its
        own declared granularity — per-function summaries drop only
        ``fn``'s entry; module-grained caches (GlobalsAA) drop entirely
        only under coarse invalidation or a module-scope change."""
        if pa is not None and pa.are_all_preserved():
            return
        self.epoch += 1
        coarse = self.ctx.invalidation == "coarse"
        for analysis_id in FUNCTION_ANALYSES:
            if not coarse and pa is not None and pa.preserves(analysis_id):
                continue
            self._drop((fn.id, analysis_id))
        if coarse:
            # legacy semantics: any change nukes this function's
            # analyses and every AA cache (pre-refactor pass_manager
            # behavior, kept for the differential benchmarks)
            for key in [k for k in self._function if k[0] == fn.id]:
                self._drop(key)
            self._invalidate_aa_module()
            return
        self._invalidate_aa_function(fn)

    def invalidate_module(self, pa: Optional[PreservedAnalyses] = None
                          ) -> None:
        """A module-scope change (module pass, or unknown extent): drop
        everything not explicitly preserved."""
        if pa is not None and pa.are_all_preserved():
            return
        self.epoch += 1
        coarse_mode = self.ctx.invalidation == "coarse"
        fns = None if pa is None else pa.modified_functions
        if fns is not None and not coarse_mode:
            fn_ids = {f.id for f in fns}
            for key in list(self._function):
                if key[0] in fn_ids and not (
                        pa is not None and pa.preserves(key[1])):
                    self._drop(key)
            for fn in fns:
                self._invalidate_aa_function(fn)
            # interprocedural state (GlobalsAA address-taken verdicts)
            # can change whenever call/use structure changes
            self._invalidate_aa_module(module_scope_only=True)
            return
        for key in list(self._function):
            if not coarse_mode and pa is not None and pa.preserves(key[1]):
                continue
            self._drop(key)
        self._invalidate_aa_module()

    def invalidate_interprocedural(self) -> None:
        """Call/use structure changed (e.g. inlining cloned instructions
        into a caller): module-grained AA caches such as GlobalsAA's
        address-taken verdicts must go, even under fine invalidation.
        Per-function summaries of *other* functions stay — their IR is
        untouched."""
        self._invalidate_aa_module(module_scope_only=True)

    def _invalidate_aa_function(self, fn: Function) -> None:
        for analysis in self.ctx.aa.analyses:
            scope = getattr(analysis, "invalidation_scope", "none")
            if scope == "function":
                inv = getattr(analysis, "invalidate_function", None)
                if inv is not None:
                    inv(fn)
                else:  # pragma: no cover - defensive fallback
                    analysis.invalidate()

    def _invalidate_aa_module(self, module_scope_only: bool = False) -> None:
        for analysis in self.ctx.aa.analyses:
            scope = getattr(analysis, "invalidation_scope", "none")
            if scope == "module" or (scope == "function"
                                     and not module_scope_only):
                inv = getattr(analysis, "invalidate", None)
                if inv is not None:
                    inv()

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
