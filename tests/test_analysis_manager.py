"""AnalysisManager / PreservedAnalyses semantics, fine-grained
invalidation, verification of preservation claims, and the equivalence
with the invalidate-everything referee (``CoarseAnalysisManager``) that
fine invalidation rests on."""

from __future__ import annotations

import pytest

from repro.analysis import ALL_AA_PASSES
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import BranchInst
from repro.passes import (
    AnalysisManager,
    AnalysisVerificationError,
    CoarseAnalysisManager,
    CompilationContext,
    DominatorTreeAnalysis,
    LoopAnalysis,
    MemorySSAAnalysis,
    Pass,
    PassManager,
    PreservedAnalyses,
    build_pipeline,
)

from helpers import run_main

LOOP_SRC = """
double acc[64];
int main() {
  for (int i = 0; i < 64; i = i + 1) acc[i] = i * 2;
  double s = 0.0;
  for (int i = 0; i < 64; i = i + 1) s = s + acc[i];
  printf("%f\n", s);
  return 0;
}
"""


def _ctx(src=LOOP_SRC, **kw):
    module = compile_source(src, "t.c")
    verify_module(module)
    return module, CompilationContext(module, **kw)


# -- PreservedAnalyses -------------------------------------------------------

class TestPreservedAnalyses:
    def test_all_preserves_everything(self):
        pa = PreservedAnalyses.all()
        assert pa.are_all_preserved()
        assert pa.preserves(DominatorTreeAnalysis)
        assert pa.preserves(MemorySSAAnalysis)

    def test_none_preserves_nothing(self):
        pa = PreservedAnalyses.none()
        assert not pa.are_all_preserved()
        assert not pa.preserves(DominatorTreeAnalysis)
        assert not pa.preserves(LoopAnalysis)

    def test_cfg_preserves_dt_li_but_not_mssa(self):
        pa = PreservedAnalyses.cfg()
        assert not pa.are_all_preserved()
        assert pa.preserves(DominatorTreeAnalysis)
        assert pa.preserves(LoopAnalysis)
        assert not pa.preserves(MemorySSAAnalysis)

    def test_from_changed_bridge(self):
        assert PreservedAnalyses.from_changed(False).are_all_preserved()
        assert PreservedAnalyses.from_changed(
            True, preserves_cfg=True).preserves(DominatorTreeAnalysis)
        assert not PreservedAnalyses.from_changed(True).preserves(
            DominatorTreeAnalysis)

    def test_no_truth_value(self):
        # the boolean 'changed' protocol is gone; any stale truthiness
        # test must fail loudly instead of silently misbehaving
        with pytest.raises(TypeError):
            bool(PreservedAnalyses.all())
        with pytest.raises(TypeError):
            if PreservedAnalyses.none():  # pragma: no cover
                pass


# -- caching and invalidation ------------------------------------------------

class TestAnalysisManagerCaching:
    def test_get_caches_and_counts(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        dt1 = ctx.am.get(DominatorTreeAnalysis, fn)
        dt2 = ctx.am.get(DominatorTreeAnalysis, fn)
        assert dt1 is dt2
        assert ctx.am.builds["DominatorTree"] == 1
        assert ctx.am.cache_hits["DominatorTree"] == 1

    def test_cached_never_builds(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is None
        ctx.am.get(DominatorTreeAnalysis, fn)
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is not None

    def test_cfg_preservation_keeps_dt_li_drops_mssa(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        dt = ctx.am.get(DominatorTreeAnalysis, fn)
        li = ctx.am.get(LoopAnalysis, fn)
        mssa = ctx.am.get(MemorySSAAnalysis, fn)
        ctx.am.invalidate_function(fn, PreservedAnalyses.cfg())
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is dt
        assert ctx.am.cached(LoopAnalysis, fn) is li
        assert ctx.am.cached(MemorySSAAnalysis, fn) is None
        # a hit on a survivor counts as an avoided rebuild
        ctx.am.get(DominatorTreeAnalysis, fn)
        assert ctx.am.preserved_hits["DominatorTree"] == 1

    def test_none_drops_everything_for_fn(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        ctx.am.get(DominatorTreeAnalysis, fn)
        ctx.am.invalidate_function(fn, PreservedAnalyses.none())
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is None

    def test_all_preserved_is_a_noop(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        ctx.am.get(DominatorTreeAnalysis, fn)
        epoch = ctx.am.epoch
        ctx.am.invalidate_function(fn, PreservedAnalyses.all())
        assert ctx.am.epoch == epoch
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is not None

    def test_coarse_mode_ignores_preservation(self):
        module, ctx = _ctx(analysis_manager=CoarseAnalysisManager)
        fn = next(iter(module.defined_functions()))
        ctx.am.get(DominatorTreeAnalysis, fn)
        ctx.am.invalidate_function(fn, PreservedAnalyses.cfg())
        assert ctx.am.cached(DominatorTreeAnalysis, fn) is None

    def test_invalid_mode_rejected(self):
        """There is no string invalidation mode left to pick: the old
        keyword is refused, not ignored."""
        from repro.oraql.compiler import Compiler

        module = compile_source(LOOP_SRC, "t.c")
        with pytest.raises(TypeError, match="invalidation"):
            CompilationContext(module, invalidation="coarse")
        with pytest.raises(TypeError, match="invalidation"):
            Compiler(invalidation="coarse")


MULTI_FN_SRC = """
int g(int x) { return x + 1; }
int h(int x) { return x * 2; }
int main() { printf("%d\n", g(3) + h(4)); return 0; }
"""


class TestFunctionScopedInvalidation:
    def test_invalidation_is_scoped_to_one_function(self):
        module, ctx = _ctx(MULTI_FN_SRC)
        fns = {f.name: f for f in module.defined_functions()}
        ctx.am.get(DominatorTreeAnalysis, fns["g"])
        dt_h = ctx.am.get(DominatorTreeAnalysis, fns["h"])
        ctx.am.invalidate_function(fns["g"], PreservedAnalyses.none())
        assert ctx.am.cached(DominatorTreeAnalysis, fns["g"]) is None
        assert ctx.am.cached(DominatorTreeAnalysis, fns["h"]) is dt_h

    def test_unspecified_preservation_drops_every_analysis_of_fn(self):
        """``ctx.invalidate(fn)`` (no ``pa``) preserves nothing of
        ``fn`` — DT, LI and MemorySSA all go — and nothing else."""
        module, ctx = _ctx(MULTI_FN_SRC)
        fns = {f.name: f for f in module.defined_functions()}
        for analysis_id in (DominatorTreeAnalysis, LoopAnalysis,
                            MemorySSAAnalysis):
            ctx.am.get(analysis_id, fns["g"])
        li_h = ctx.am.get(LoopAnalysis, fns["h"])
        ctx.invalidate(fns["g"])
        for analysis_id in (DominatorTreeAnalysis, LoopAnalysis,
                            MemorySSAAnalysis):
            assert ctx.am.cached(analysis_id, fns["g"]) is None
        assert ctx.am.cached(LoopAnalysis, fns["h"]) is li_h

    def test_coarse_referee_keeps_other_functions_analyses(self):
        """The referee ignores what a change preserves, not where it
        happened: another function's DT survives there too."""
        module, ctx = _ctx(MULTI_FN_SRC,
                           analysis_manager=CoarseAnalysisManager)
        fns = {f.name: f for f in module.defined_functions()}
        ctx.am.get(DominatorTreeAnalysis, fns["g"])
        dt_h = ctx.am.get(DominatorTreeAnalysis, fns["h"])
        ctx.am.invalidate_function(fns["g"], PreservedAnalyses.cfg())
        assert ctx.am.cached(DominatorTreeAnalysis, fns["g"]) is None
        assert ctx.am.cached(DominatorTreeAnalysis, fns["h"]) is dt_h


# -- AA chain construction and invalidation scopes ---------------------------

class TestAAChain:
    def test_requires_module_dispatch(self):
        module, ctx = _ctx()
        globals_aa = next(a for a in ctx.aa.analyses
                          if a.name == "globals-aa")
        assert set(globals_aa._cache) == set(module.globals)

    def test_constructor_typeerror_not_swallowed(self):
        """The old ``try: cls(module) except TypeError: cls()`` probe
        swallowed TypeErrors raised *inside* constructors; the explicit
        ``requires_module`` dispatch must propagate them."""
        class BrokenAA:
            name = "broken-aa"
            requires_module = True

            def __init__(self, module):
                raise TypeError("genuine constructor bug")

        ALL_AA_PASSES["broken-aa"] = BrokenAA
        try:
            module = compile_source(LOOP_SRC, "t.c")
            with pytest.raises(TypeError, match="genuine constructor bug"):
                CompilationContext(module, aa_chain=("broken-aa",))
        finally:
            del ALL_AA_PASSES["broken-aa"]

    def test_function_scope_invalidation_is_per_function(self):
        module, ctx = _ctx(MULTI_FN_SRC, aa_chain=(
            "basic-aa", "cfl-steens-aa", "globals-aa"))
        fns = {f.name: f for f in module.defined_functions()}
        steens = next(a for a in ctx.aa.analyses
                      if a.name == "cfl-steens-aa")
        steens._summary(fns["g"])
        steens._summary(fns["h"])
        ctx.am.invalidate_function(fns["g"], PreservedAnalyses.cfg())
        assert fns["g"].id not in steens._summaries
        assert fns["h"].id in steens._summaries

    def test_globals_aa_survives_function_change_fine(self):
        module, ctx = _ctx()
        fn = next(iter(module.defined_functions()))
        globals_aa = next(a for a in ctx.aa.analyses
                          if a.name == "globals-aa")
        globals_aa._cache[12345] = True
        ctx.am.invalidate_function(fn, PreservedAnalyses.cfg())
        assert globals_aa._cache  # module analyses survive function passes

    def test_globals_aa_fixed_under_coarse(self):
        """The verdicts are fixed when the chain is built, so the
        invalidate-everything referee keeps them too: fine and coarse
        invalidation answer from the same verdicts."""
        module, ctx = _ctx(analysis_manager=CoarseAnalysisManager)
        fn = next(iter(module.defined_functions()))
        globals_aa = next(a for a in ctx.aa.analyses
                          if a.name == "globals-aa")
        built = dict(globals_aa._cache)
        assert set(built) == set(module.globals)
        ctx.am.invalidate_function(fn, PreservedAnalyses.cfg())
        assert globals_aa._cache == built


# -- verify_analyses: catching passes that lie -------------------------------

class LyingPass(Pass):
    """Folds away a conditional branch (a CFG change) but claims the
    CFG analyses survived."""

    name = "lying"
    display_name = "Lying Pass"

    def run_on_function(self, fn, ctx):
        for bb in fn.blocks:
            term = bb.terminator
            if isinstance(term, BranchInst) and term.is_conditional:
                keep = term.targets[0]
                drop = term.targets[1]
                if drop is not keep:
                    for phi in drop.phis():
                        phi.remove_incoming(bb)
                term.erase_from_parent()
                bb.append(BranchInst([keep]))
                return PreservedAnalyses.cfg()  # the lie
        return PreservedAnalyses.all()


class HonestPass(LyingPass):
    name = "honest"
    display_name = "Honest Pass"

    def run_on_function(self, fn, ctx):
        pa = super().run_on_function(fn, ctx)
        if pa.are_all_preserved():
            return pa
        return PreservedAnalyses.none()  # the truth


BRANCH_SRC = """
int main() {
  int x = 0;
  if (1) { x = 3; } else { x = 4; }
  printf("%d\n", x);
  return 0;
}
"""


class TestVerifyAnalyses:
    def _prime(self, ctx, module):
        # the lie is only detectable when a stale DT is actually cached
        for fn in module.defined_functions():
            ctx.am.get(DominatorTreeAnalysis, fn)
            ctx.am.get(LoopAnalysis, fn)

    def test_lying_pass_caught(self):
        module, ctx = _ctx(BRANCH_SRC, verify_analyses=True)
        self._prime(ctx, module)
        with pytest.raises(AnalysisVerificationError, match="Lying Pass"):
            PassManager(ctx).run([LyingPass()])

    def test_honest_pass_accepted(self):
        module, ctx = _ctx(BRANCH_SRC, verify_analyses=True)
        self._prime(ctx, module)
        PassManager(ctx).run([HonestPass()])

    def test_lie_undetected_without_flag(self):
        module, ctx = _ctx(BRANCH_SRC)
        self._prime(ctx, module)
        PassManager(ctx).run([LyingPass()])  # no error: mode is opt-in

    def test_full_pipeline_under_verification(self):
        # every stock pass must be honest about what it preserves
        module, ctx = _ctx(verify_analyses=True, verify_each=True)
        PassManager(ctx).run(build_pipeline(3))
        verify_module(module)
        run_main(module)


# -- function passes under the pass manager ---------------------------------

PICK_SRC = """
int pick(int c) {
  int x = 0;
  if (c) { x = 3; } else { x = 4; }
  return x;
}
int other(int x) { return x + 1; }
int main() { printf("%d\n", pick(1) + other(2)); return 0; }
"""


class TestFunctionPasses:
    def test_verify_each_scopes_to_changed_function(self):
        module, ctx = _ctx(PICK_SRC, verify_each=True)
        fns = {f.name: f for f in module.defined_functions()}
        dt_other = ctx.am.get(DominatorTreeAnalysis, fns["other"])
        ctx.am.get(DominatorTreeAnalysis, fns["pick"])
        PassManager(ctx).run([HonestPass()])
        # only pick has a branch to fold; other keeps its analyses (and
        # was not re-verified against a stale tree)
        assert ctx.am.cached(DominatorTreeAnalysis, fns["other"]) is dt_other
        assert ctx.am.cached(DominatorTreeAnalysis, fns["pick"]) is None
        assert run_main(module).output() == "6\n"

    def test_unchanged_pass_keeps_everything(self):
        module, ctx = _ctx(MULTI_FN_SRC)
        fns = {f.name: f for f in module.defined_functions()}
        dt = ctx.am.get(DominatorTreeAnalysis, fns["main"])
        epoch = ctx.am.epoch
        PassManager(ctx).run([HonestPass()])  # no branch anywhere
        assert ctx.am.cached(DominatorTreeAnalysis, fns["main"]) is dt
        assert ctx.am.epoch == epoch


# -- fine vs coarse equivalence ----------------------------------------------

MANAGERS = {"fine": AnalysisManager, "coarse": CoarseAnalysisManager}


class TestEquivalence:
    @pytest.mark.parametrize("opt_level", [2, 3])
    def test_fine_and_coarse_produce_identical_ir(self, opt_level):
        from repro.ir import module_hash

        outs = {}
        for mode, manager in MANAGERS.items():
            module = compile_source(LOOP_SRC, "t.c")
            ctx = CompilationContext(module, analysis_manager=manager)
            PassManager(ctx).run(build_pipeline(opt_level))
            verify_module(module)
            m = run_main(module)
            outs[mode] = (module_hash(module), m.output(),
                          ctx.aa.total_queries, ctx.aa.no_alias_count)
        assert outs["fine"] == outs["coarse"]

    def test_all_workloads_fine_vs_coarse(self):
        """Every bundled configuration compiles to a bit-identical
        executable with an identical AA query stream under both
        invalidation modes, and the ORAQL pass sees the same unique
        query sequence."""
        import repro.workloads  # noqa: F401 — registers all variants
        from repro.fuzz.oracle import RefereeCompiler
        from repro.oraql.compiler import Compiler
        from repro.workloads.base import get_config, row_names

        for row in row_names():
            seen = {}
            for mode, make in (("fine", Compiler),
                               ("coarse", RefereeCompiler)):
                cfg = get_config(row)
                prog = make().compile(cfg, oraql_enabled=True)
                seen[mode] = (
                    prog.exe_hash,
                    prog.ctx.aa.total_queries,
                    prog.no_alias_count,
                    [(rec.index, rec.optimistic, rec.cached, rec.scope,
                      rec.issuing_pass, rec.a.ptr.name, rec.b.ptr.name)
                     for rec in prog.oraql.records],
                )
            assert seen["fine"] == seen["coarse"], row

    def test_fine_avoids_rebuilds(self):
        builds = {}
        for mode, manager in MANAGERS.items():
            module = compile_source(LOOP_SRC, "t.c")
            ctx = CompilationContext(module, analysis_manager=manager)
            PassManager(ctx).run(build_pipeline(3))
            builds[mode] = dict(ctx.am.builds)
        assert builds["fine"]["DominatorTree"] < \
            builds["coarse"]["DominatorTree"]
        assert builds["fine"]["LoopInfo"] <= builds["coarse"]["LoopInfo"]
        # MemorySSA is never preserved: its schedule must be identical,
        # or the ORAQL query stream would change
        assert builds["fine"].get("MemorySSA") == \
            builds["coarse"].get("MemorySSA")
