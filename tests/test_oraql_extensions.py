"""Tests for the optional/extension features: the ORAQL query-cache
ablation toggle, and the §VIII override mode."""

from repro.ir import verify_module
from repro.oraql import (
    BenchmarkConfig,
    Compiler,
    DecisionSequence,
    OraqlAAPass,
    OraqlOverridePass,
    SourceFile,
    measure_chain_value,
)


HAZARD_SRC = """
void scale_shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
int main() {
  double buf[64];
  double weights[64];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  for (int i = 0; i < 64; i++) { weights[i] = 0.5 * i; }
  scale_shift(buf + 1, buf, 60);
  double s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + buf[i] * weights[i]; }
  printf("%.6f\\n", s);
  return 0;
}
"""


class TestCacheAblation:
    def test_cache_off_consumes_sequence_per_query(self):
        cfg = BenchmarkConfig(name="c", sources=[SourceFile("t.c",
                                                            HAZARD_SRC)])
        compiler = Compiler()

        def consumed(cache_enabled):
            from repro.oraql.pass_ import OraqlAAPass as P
            import repro.oraql.compiler as C
            # compile manually so we can pass the toggle
            prog = compiler.compile(cfg, oraql_enabled=True,
                                    sequence=DecisionSequence())
            if cache_enabled:
                return prog.oraql.sequence.consumed
            # rebuild with the cache off
            from repro.frontend import compile_source as cs
            from repro.passes import (CompilationContext, PassManager,
                                      build_pipeline)
            m = cs(HAZARD_SRC, "t.c")
            p = P(DecisionSequence(), cache_enabled=False)
            ctx = CompilationContext(m, oraql=p)
            PassManager(ctx).run(build_pipeline(3))
            return p.sequence.consumed

        with_cache = consumed(True)
        without = consumed(False)
        # the paper's rationale: caching shortens the probing sequence
        assert without > with_cache

    def test_cache_off_still_compiles_consistently(self):
        from repro.frontend import compile_source as cs
        from repro.passes import CompilationContext, PassManager, build_pipeline
        m = cs(HAZARD_SRC, "t.c")
        p = OraqlAAPass(DecisionSequence(), cache_enabled=False)
        ctx = CompilationContext(m, oraql=p)
        PassManager(ctx).run(build_pipeline(3))
        verify_module(m)


class TestOverrideMode:
    def test_suppressing_chain_is_sound(self):
        cfg = BenchmarkConfig(name="o", sources=[SourceFile("t.c",
                                                            HAZARD_SRC)])
        rep = measure_chain_value(cfg)
        assert rep.no_alias_suppressed == 0
        assert rep.no_alias_normal > 0
        assert rep.instructions_suppressed >= rep.instructions_normal

    def test_partial_override_sequence(self):
        """Decision 1 defers to the chain; 0 forces may-alias."""
        cfg = BenchmarkConfig(name="o", sources=[SourceFile("t.c",
                                                            HAZARD_SRC)])
        ov = OraqlOverridePass(DecisionSequence([1] * 1000))
        prog = Compiler().compile(cfg, override=ov)
        assert ov.deferred_unique > 0
        assert ov.forced_unique == 0
        assert prog.no_alias_count > 0  # the chain still answered

    def test_override_stats(self):
        cfg = BenchmarkConfig(name="o", sources=[SourceFile("t.c",
                                                            HAZARD_SRC)])
        ov = OraqlOverridePass(DecisionSequence())
        prog = Compiler().compile(cfg, override=ov)
        assert ov.forced_unique > 0
        assert prog.no_alias_count == 0
        r = prog.run()
        assert r.ok  # pessimism never breaks the program
