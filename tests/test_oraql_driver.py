"""Integration tests for the probing driver: full-optimistic shortcut,
both bisection strategies, executable-hash caching, deduction, and the
soundness-of-unsoundness failure-injection checks."""

import pytest

from repro.oraql import (
    BenchmarkConfig,
    Compiler,
    DecisionSequence,
    ProbingDriver,
    SourceFile,
    sequence_from_pessimistic_set,
)

SAFE_SRC = """
void combine(double* out, double* a, double* b, int n) {
  for (int i = 0; i < n; i++) { out[i] = a[i] * b[i]; }
}
int main() {
  double x[32]; double y[32]; double z[32];
  for (int i = 0; i < 32; i++) { x[i] = i; y[i] = 32.0 - i; z[i] = 0.0; }
  combine(z, x, y, 32);
  double s = 0.0;
  for (int i = 0; i < 32; i++) { s = s + z[i]; }
  printf("checksum = %.6f\\n", s);
  return 0;
}
"""

HAZARD_SRC = """
void scale_shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
void combine(double* out, double* a, double* b, int n) {
  for (int i = 0; i < n; i++) { out[i] = a[i] * b[i]; }
}
int main() {
  double buf[64];
  double x[32]; double y[32]; double z[32];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  for (int i = 0; i < 32; i++) { x[i] = i; y[i] = 32.0 - i; z[i] = 0.0; }
  combine(z, x, y, 32);
  scale_shift(buf + 1, buf, 60);   // dst/src genuinely overlap
  double s1 = 0.0; double s2 = 0.0;
  for (int i = 0; i < 32; i++) { s1 = s1 + z[i]; }
  for (int i = 0; i < 64; i++) { s2 = s2 + buf[i] * i; }
  printf("z = %.6f\\nbuf = %.6f\\n", s1, s2);
  return 0;
}
"""


def cfg_of(src, name="t"):
    return BenchmarkConfig(name=name, sources=[SourceFile("t.c", src)])


class TestDriverBasics:
    def test_fully_optimistic_shortcut(self):
        rep = ProbingDriver(cfg_of(SAFE_SRC)).run()
        assert rep.fully_optimistic
        assert rep.pess_unique == 0
        assert rep.tests_run == 1       # only the empty-sequence attempt
        assert rep.opt_unique > 0
        assert rep.no_alias_oraql > rep.no_alias_original

    @pytest.mark.parametrize("strategy", ["chunked", "frequency"])
    def test_finds_dangerous_queries(self, strategy):
        rep = ProbingDriver(cfg_of(HAZARD_SRC), strategy=strategy).run()
        assert not rep.fully_optimistic
        assert rep.pess_unique >= 1
        assert rep.pessimistic_indices
        # the dangerous query lives in scale_shift
        scopes = {r.scope for r in rep.pessimistic_records}
        assert "scale_shift" in scopes
        # everything else stays optimistic
        assert rep.opt_unique >= 1

    def test_final_sequence_is_locally_maximal(self):
        """Flipping any pessimistic decision back to optimistic must
        break verification (local maximality, paper §IV-B)."""
        cfg = cfg_of(HAZARD_SRC)
        rep = ProbingDriver(cfg).run()
        compiler = Compiler()
        from repro.oraql import VerificationScript
        base = compiler.compile(cfg, oraql_enabled=False).run()
        verifier = VerificationScript([base.stdout])
        for idx in rep.pessimistic_indices:
            relaxed = set(rep.pessimistic_indices) - {idx}
            seq = sequence_from_pessimistic_set(
                relaxed, len(rep.final_sequence))
            prog = compiler.compile(cfg, sequence=seq, oraql_enabled=True)
            assert not verifier.check(prog.run()), (
                f"flipping query {idx} optimistic should break the tests")

    def test_exe_hash_cache_hits(self):
        """Sequences that only differ in irrelevant decisions compile to
        identical executables and reuse the recorded verdict."""
        drv = ProbingDriver(cfg_of(HAZARD_SRC))
        rep = drv.run()
        # probing long enough to revisit at least one identical binary;
        # a probe either compiles or is replayed from earlier answers;
        # the final program is the last passing probe's
        assert rep.final_reused is not None
        assert rep.compiles + rep.compiles_skipped == \
            rep.tests_run + rep.tests_cached + 1

    def test_deduction_counted(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC), strategy="chunked").run()
        assert rep.tests_deduced >= 1

    def test_reports_query_origins(self):
        rep = ProbingDriver(cfg_of(SAFE_SRC)).run()
        assert sum(rep.unique_by_pass.values()) == rep.opt_unique
        assert all(n > 0 for n in rep.unique_by_pass.values())

    def test_report_counts_consistent(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC)).run()
        assert rep.pess_unique == len(rep.pessimistic_indices)
        assert len(rep.final_sequence) >= max(rep.pessimistic_indices) + 1

    def test_strategies_agree_on_verdict(self):
        r1 = ProbingDriver(cfg_of(HAZARD_SRC), strategy="chunked").run()
        r2 = ProbingDriver(cfg_of(HAZARD_SRC), strategy="frequency").run()
        assert r1.fully_optimistic == r2.fully_optimistic is False
        # both find locally-maximal sets; sizes should match here
        assert r1.pess_unique == r2.pess_unique


class TestFailureInjection:
    """Soundness-of-unsoundness: a wrong no-alias answer must be able to
    change program output through each transform channel."""

    def _breaks(self, src):
        cfg = cfg_of(src)
        compiler = Compiler()
        base = compiler.compile(cfg, oraql_enabled=False).run()
        assert base.ok, base.error
        opt = compiler.compile(cfg, sequence=DecisionSequence(),
                               oraql_enabled=True).run()
        return (not opt.ok) or (opt.stdout != base.stdout)

    def test_vectorizer_channel(self):
        src = """
        int main() {
          double x[32];
          for (int i = 0; i < 32; i++) { x[i] = 1.0 + i; }
          scale(x + 1, x, 24);
          double s = 0.0;
          for (int i = 0; i < 32; i++) { s = s + x[i] * i; }
          printf("%.6f\\n", s);
          return 0;
        }
        void scale(double* dst, double* src, int n) {
          for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
        }
        """
        assert self._breaks(src)

    def test_early_cse_channel(self):
        src = """
        void touch(double* a, double* b) {
          double before = a[0];
          b[0] = before * 2.0;
          double after = a[0];      // b aliases a: must reload
          a[1] = after - before;
        }
        int main() {
          double m[4];
          m[0] = 3.0; m[1] = 0.0;
          touch(m, m);
          printf("%.1f\\n", m[1]);
          return 0;
        }
        """
        assert self._breaks(src)

    def test_licm_channel(self):
        src = """
        void pump(double* cell, double* arr, int n) {
          for (int i = 0; i < n; i++) {
            arr[i] = cell[0] + i;     // cell points into arr
          }
        }
        int main() {
          double a[8];
          for (int i = 0; i < 8; i++) { a[i] = 1.0; }
          pump(a + 3, a, 8);
          double s = 0.0;
          for (int i = 0; i < 8; i++) { s = s + a[i] * (i + 1); }
          printf("%.2f\\n", s);
          return 0;
        }
        """
        assert self._breaks(src)

    def test_dse_channel(self):
        src = """
        void publish(double* out, double* probe) {
          out[0] = 111.0;
          probe[1] = probe[0] + out[0];  // reads out[0] via probe? no:
          out[0] = 222.0;                // but probe IS out here
        }
        int main() {
          double m[4];
          m[0] = 0.0; m[1] = 0.0;
          publish(m, m);
          printf("%.1f %.1f\\n", m[0], m[1]);
          return 0;
        }
        """
        assert self._breaks(src)

    def test_safe_program_does_not_break(self):
        assert not self._breaks(SAFE_SRC)


class TestDriverErrors:
    def test_broken_baseline_rejected(self):
        src = 'int main() { abort(); return 0; }'
        with pytest.raises(RuntimeError, match="baseline"):
            ProbingDriver(cfg_of(src)).run()

    def test_reference_mismatch_rejected(self):
        cfg = cfg_of(SAFE_SRC)
        cfg.reference_outputs = ["something else entirely\n"]
        with pytest.raises(RuntimeError, match="reference"):
            ProbingDriver(cfg).run()

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            ProbingDriver(cfg_of(SAFE_SRC), strategy="magic")
