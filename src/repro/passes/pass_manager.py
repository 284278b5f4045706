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
function's DominatorTree/LoopInfo alive, and a function-local change
drops only the changed function's per-function CFL summaries (GlobalsAA
fixes its address-taken verdicts when the chain is built, as LLVM
computes its module analysis before the first consumer).  Every pass is
a function pass.  A context built with
``analysis_manager=CoarseAnalysisManager`` invalidates everything on
every change instead; only the fine-vs-coarse referees build one.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Type

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
                 analysis_manager: Type[AnalysisManager] = AnalysisManager,
                 trace=None, analysis_module: Optional[Module] = None):
        self.module = module
        self.oraql = oraql
        self.override = override
        # the module-level analyses read ``analysis_module`` when given:
        # a copy of ``module`` as it is before the pipeline
        analysis_module = analysis_module or module
        analyses = []
        for name in aa_chain:
            cls = ALL_AA_PASSES[name]
            analyses.append(cls(analysis_module) if cls.requires_module
                            else cls())
        self.aa = AAResults(analyses, oraql=oraql, override=override)
        if oraql is not None:
            oraql.attach(self)
        self.stats = Statistics()
        self.debug_log: List[str] = []
        self.debug_pass_executions = debug_pass_executions
        self.verify_each = verify_each
        self.verify_analyses = verify_analyses
        self.am = analysis_manager(self)
        #: number of per-function pass runs this context performed
        self.pass_executions = 0
        #: the function memo's run for this compile
        #: (:class:`repro.oraql.fnmemo.MemoRun`), or None: every
        #: function runs the whole pipeline
        self.memo = None
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

    def invalidate(self, fn: Function,
                   pa: Optional[PreservedAnalyses] = None) -> None:
        """Invalidate ``fn``'s analyses after a change: everything
        ``pa`` does not preserve.  ``pa=None`` preserves nothing (used
        by passes that mutate the CFG mid-run and must refetch loop
        structure)."""
        self.am.invalidate_function(fn, pa)

    def adopt_prefix(self, prefix: "CompilationContext",
                     built: bool) -> None:
        """Take over what the pipeline's query-free prefix contributed to
        this compile, which runs the rest of the pipeline on a copy of
        the prefix's result: its statistics, its announcements when
        this context announces, and its work counters only when this
        compile ran it (``built``)."""
        self.stats.merge(prefix.stats)
        if self.announces:
            self.debug_log.extend(prefix.debug_log)
        if built:
            self.am.merge_counters(prefix.am)
            self.pass_executions += prefix.pass_executions

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
        and unlink the ORAQL pass and the trace.  Statistics and
        counters stay readable."""
        self.am.release()
        self._fn_views.clear()
        if self.oraql is not None:
            self.oraql.attach(None)
        self.trace = self.aa.trace = None

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
    @property
    def announces(self) -> bool:
        """Whether pass executions go to the debug log."""
        return self.debug_pass_executions or (
            self.oraql is not None and self.oraql.wants_dump())

    def announce(self, pass_name: str, fn: Optional[Function] = None) -> None:
        if self.announces:
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


class PassManager:
    """Runs a pipeline, maintaining attribution and invalidation."""

    def __init__(self, ctx: CompilationContext):
        self.ctx = ctx

    def run(self, pipeline: Sequence[Pass]) -> None:
        """Run ``pipeline`` over the context's module: each pass on
        every function, pass by pass.  Under the function memo
        (``ctx.memo``) a function whose answers repeat an earlier
        compile's replays its steps instead of running them."""
        ctx = self.ctx
        if ctx.memo is not None:
            ctx.memo.run(self, pipeline)
        else:
            module = ctx.module
            for p in pipeline:
                for fn in list(module.defined_functions()):
                    if p.should_run_on(fn):
                        self.step(p, fn)
        ctx.aa.current_pass = "<none>"
        ctx.aa.current_function = None

    def step(self, p: Pass, fn: Function) -> None:
        """Run pass ``p`` on ``fn`` (which it runs on), with attribution
        and invalidation."""
        ctx = self.ctx
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
