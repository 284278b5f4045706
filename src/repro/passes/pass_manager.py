"""Pass manager and compilation context.

Mirrors the relevant behaviour of LLVM's *new* pass manager (paper
§III): passes run in a fixed sequence, consume analyses (AA,
dominators, loops, MemorySSA) computed lazily through an
:class:`~repro.passes.analysis_manager.AnalysisManager`, and report a
:class:`~repro.passes.analysis_manager.PreservedAnalyses` describing
exactly which analyses survive each transformation.  The manager can
announce executions (``-debug-pass=Executions``), which is how ORAQL's
dumps attribute queries to the issuing pass (Fig. 3).

Invalidation is fine-grained: a CFG-preserving pass keeps its
function's DominatorTree/LoopInfo alive, and a function-local change no
longer nukes module-level AA state (per-function CFL summaries drop
only the changed function's entry; GlobalsAA keeps its address-taken
verdicts, as LLVM's module analyses survive function passes).  The
legacy invalidate-everything behavior remains available as
``invalidation="coarse"`` for the differential benchmarks.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from ..analysis import (
    AAResults,
    ALL_AA_PASSES,
    DEFAULT_AA_CHAIN,
    DominatorTree,
    LoopInfo,
    MemorySSA,
)
from ..ir.function import Function
from ..ir.module import Module
from ..ir.verifier import verify_function
from .analysis_manager import (
    AnalysisManager,
    DominatorTreeAnalysis,
    LoopAnalysis,
    MemorySSAAnalysis,
    PreservedAnalyses,
)
from .statistics import Statistics


class FunctionAnalyses:
    """Per-function analysis view, backed by the context's
    :class:`AnalysisManager` (caching, invalidation, and the rebuild
    counters all live there)."""

    def __init__(self, ctx: "CompilationContext", fn: Function):
        self.ctx = ctx
        self.fn = fn

    @property
    def dt(self) -> DominatorTree:
        return self.ctx.am.get(DominatorTreeAnalysis, self.fn)

    @property
    def li(self) -> LoopInfo:
        return self.ctx.am.get(LoopAnalysis, self.fn)

    @property
    def mssa(self) -> MemorySSA:
        """MemorySSA with eager use optimization; queries issued during
        construction are attributed to the 'Memory SSA' pass."""
        return self.ctx.am.get(MemorySSAAnalysis, self.fn)


class CompilationContext:
    """Everything shared across one compilation: the AA chain (with the
    optional ORAQL pass appended), statistics, the debug log, and the
    analysis manager."""

    def __init__(self, module: Module,
                 aa_chain: Sequence[str] = DEFAULT_AA_CHAIN,
                 oraql=None, override=None,
                 debug_pass_executions: bool = False,
                 verify_each: bool = False,
                 verify_analyses: bool = False,
                 invalidation: str = "fine",
                 trace=None):
        if invalidation not in ("fine", "coarse"):
            raise ValueError(f"unknown invalidation mode {invalidation!r}")
        self.module = module
        self.oraql = oraql
        self.override = override
        analyses = []
        for name in aa_chain:
            cls = ALL_AA_PASSES[name]
            analyses.append(cls(module) if cls.requires_module else cls())
        self.aa = AAResults(analyses, oraql=oraql, override=override)
        if oraql is not None:
            oraql.attach(self)
        self.stats = Statistics()
        self.debug_log: List[str] = []
        self.debug_pass_executions = debug_pass_executions
        self.verify_each = verify_each
        self.verify_analyses = verify_analyses
        self.invalidation = invalidation
        self.am = AnalysisManager(self)
        #: number of pass executions (per-function runs + module-pass
        #: runs) this context performed
        self.pass_executions = 0
        self._fn_views: Dict[int, FunctionAnalyses] = {}
        #: pass-context stack for query provenance: the top entry is the
        #: pass currently executing; an analysis built on demand inside a
        #: pass (Memory SSA during GVN) pushes itself so queries keep
        #: both attributions.  Mirrors ``aa.current_pass`` (the top).
        self.pass_stack: List[str] = []
        self.trace = trace
        if trace is not None:
            trace.bind_context(self)
            self.aa.trace = trace

    # -- analyses ----------------------------------------------------------
    def analyses(self, fn: Function) -> FunctionAnalyses:
        view = self._fn_views.get(fn.id)
        if view is None:
            view = FunctionAnalyses(self, fn)
            self._fn_views[fn.id] = view
        return view

    def invalidate(self, fn: Optional[Function] = None,
                   pa: Optional[PreservedAnalyses] = None) -> None:
        """Invalidate analyses after a change: everything ``pa`` does
        not preserve, at function scope when ``fn`` is given, module
        scope otherwise.  ``pa=None`` preserves nothing (the legacy
        meaning of ``invalidate``, used by passes that mutate the CFG
        mid-run and must refetch loop structure)."""
        if fn is None:
            self.am.invalidate_module(pa)
        else:
            self.am.invalidate_function(fn, pa)

    def merge(self, other: "CompilationContext") -> None:
        """Fold another context's bookkeeping into this one.  Used when
        several compilation contexts report through a single program
        context (the non-LTO per-TU compiles), replacing the inline
        counter folding previously copied at each call site."""
        if other is self:
            return
        self.stats.merge(other.stats)
        self.aa.merge(other.aa)
        self.am.merge_counters(other.am)
        self.debug_log.extend(other.debug_log)
        self.pass_executions += other.pass_executions

    def release(self) -> None:
        """Break this context's reference cycles once its compile is
        done with: empty the analysis caches and per-function views,
        and unlink the ORAQL pass.  Statistics and counters stay
        readable."""
        self.am.release()
        self._fn_views.clear()
        if self.oraql is not None:
            self.oraql.attach(None)

    # -- pass-context stack ------------------------------------------------
    def push_pass(self, name: str) -> None:
        self.pass_stack.append(name)
        self.aa.current_pass = name

    def pop_pass(self) -> None:
        if self.pass_stack:
            self.pass_stack.pop()
        self.aa.current_pass = (self.pass_stack[-1] if self.pass_stack
                                else "<none>")

    def timed(self, name: str):
        """A phase-timer scope when tracing, a no-op otherwise."""
        if self.trace is not None:
            return self.trace.phase(name)
        return nullcontext()

    # -- logging --------------------------------------------------------------
    def announce(self, pass_name: str, fn: Optional[Function] = None) -> None:
        if self.debug_pass_executions or (
                self.oraql is not None and self.oraql.wants_dump()):
            where = f" on Function '{fn.name}'" if fn is not None else ""
            self.debug_log.append(f"Executing Pass '{pass_name}'{where}...")

    def log(self, text: str) -> None:
        self.debug_log.append(text)


class Pass:
    """Base class: function-at-a-time transformation.

    ``run_on_function`` returns a :class:`PreservedAnalyses`:
    ``PreservedAnalyses.all()`` when nothing changed, ``cfg()`` when
    instructions changed but the block graph did not, ``none()`` when
    the CFG itself may have changed.
    """

    name = "pass"
    display_name = "Pass"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        raise NotImplementedError

    def should_run_on(self, fn: Function) -> bool:
        return not fn.is_declaration and fn.blocks


class ModulePass(Pass):
    """Base class: whole-module transformation.  ``run_on_module``
    returns a :class:`PreservedAnalyses` whose ``modified_functions``
    (when known) scopes both invalidation and ``verify_each``."""

    def run_on_module(self, module: Module,
                      ctx: CompilationContext) -> PreservedAnalyses:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline, maintaining attribution and invalidation."""

    def __init__(self, ctx: CompilationContext):
        self.ctx = ctx

    def run(self, pipeline: Sequence[Pass]) -> None:
        """Run ``pipeline`` over the context's module."""
        ctx = self.ctx
        module = ctx.module
        for p in pipeline:
            if isinstance(p, ModulePass):
                ctx.announce(p.display_name)
                ctx.push_pass(p.display_name)
                ctx.aa.current_function = None
                ctx.pass_executions += 1
                try:
                    with ctx.timed(p.display_name):
                        pa = p.run_on_module(module, ctx)
                finally:
                    ctx.pop_pass()
                if not pa.are_all_preserved():
                    ctx.am.invalidate_module(pa)
                    touched = (pa.modified_functions
                               if pa.modified_functions is not None
                               else module.defined_functions())
                    for fn in touched:
                        if ctx.verify_each:
                            verify_function(
                                fn, dt=ctx.am.cached(DominatorTreeAnalysis,
                                                     fn))
                        if ctx.verify_analyses:
                            ctx.am.verify_preserved(fn, p.display_name)
                continue
            for fn in list(module.defined_functions()):
                if not p.should_run_on(fn):
                    continue
                ctx.announce(p.display_name, fn)
                ctx.push_pass(p.display_name)
                ctx.aa.current_function = fn
                ctx.pass_executions += 1
                try:
                    with ctx.timed(p.display_name):
                        pa = p.run_on_function(fn, ctx)
                finally:
                    ctx.pop_pass()
                if not pa.are_all_preserved():
                    ctx.am.invalidate_function(fn, pa)
                    if ctx.verify_each:
                        verify_function(
                            fn, dt=ctx.am.cached(DominatorTreeAnalysis, fn))
                    if ctx.verify_analyses:
                        ctx.am.verify_preserved(fn, p.display_name)
        ctx.aa.current_pass = "<none>"
        ctx.aa.current_function = None
