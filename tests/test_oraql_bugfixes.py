"""Regression tests for driver/compiler bugfixes: the honored LTO flag,
closest-reference mismatch reports, and the frequency strategy's
worklist."""

import inspect

from repro.oraql import (
    BenchmarkConfig,
    Compiler,
    DecisionSequence,
    ProbingDriver,
    RunResult,
    SourceFile,
    VerificationScript,
)

MAIN_TU = """
void mix_b(double* d, double* s, int n);
void mix_a(double* d, double* s, int n) {
  for (int i = 0; i < n; i++) { d[i] = s[i] * 2.0 + d[i]; }
}
int main() {
  double a[16]; double b[16];
  for (int i = 0; i < 16; i++) { a[i] = i; b[i] = 16.0 - i; }
  mix_a(a, b, 16);
  mix_b(b, a, 16);
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s = s + a[i] + b[i]; }
  printf("s = %.4f\\n", s);
  return 0;
}
"""

LIB_TU = """
void mix_b(double* d, double* s, int n) {
  for (int i = 0; i < n; i++) { d[i] = s[i] * 0.5 + d[i]; }
}
"""


def two_tu_config(lto):
    return BenchmarkConfig(
        name="two-tu", lto=lto,
        sources=[SourceFile("main.c", MAIN_TU), SourceFile("lib.c", LIB_TU)])


class TestLTOFlagHonored:
    """`Compiler.compile` used to link all translation units before
    optimization unconditionally; non-LTO builds must optimize each TU
    in isolation and only link for execution."""

    def test_non_lto_optimizes_per_translation_unit(self):
        """The ORAQL query stream is TU-major without LTO (the whole
        pipeline runs on main.c before lib.c is touched) but pass-major
        with LTO (each pass sweeps the linked module)."""
        def scopes(lto):
            prog = Compiler().compile(two_tu_config(lto),
                                      sequence=DecisionSequence(),
                                      oraql_enabled=True)
            return [r.scope for r in prog.oraql.records]

        lto_scopes = scopes(True)
        non_lto_scopes = scopes(False)
        assert set(lto_scopes) == set(non_lto_scopes) == {"mix_a", "mix_b"}
        assert lto_scopes != non_lto_scopes
        # non-LTO: every main.c query precedes every lib.c query
        assert non_lto_scopes.index("mix_b") \
            > max(i for i, s in enumerate(non_lto_scopes) if s == "mix_a")

    def test_both_modes_run_correctly(self):
        outputs = set()
        for lto in (True, False):
            prog = Compiler().compile(two_tu_config(lto))
            result = prog.run()
            assert result.ok, result.error
            outputs.add(result.stdout)
        assert len(outputs) == 1  # linking strategy never changes output

    def test_non_lto_bookkeeping_covers_all_tus(self):
        """Per-TU stats and AA counters must be aggregated, not dropped."""
        prog = Compiler().compile(two_tu_config(False))
        assert prog.no_alias_count > 0
        # codegen stats exist for the linked module
        assert prog.stats.get("asm printer",
                              "# machine instructions generated") >= 0

    def test_probing_works_in_both_modes(self):
        for lto in (True, False):
            rep = ProbingDriver(two_tu_config(lto)).run()
            assert rep.opt_unique + rep.pess_unique > 0

    def test_single_tu_unaffected(self):
        cfg = BenchmarkConfig(name="one", sources=[
            SourceFile("main.c", LIB_TU.replace("mix_b", "mix") + """
int main() {
  double a[8]; double b[8];
  for (int i = 0; i < 8; i++) { a[i] = i; b[i] = 1.0; }
  mix(a, b, 8);
  printf("%.2f\\n", a[3]);
  return 0;
}
""")])
        h_default = Compiler().compile(cfg).exe_hash
        cfg.lto = True
        h_lto = Compiler().compile(cfg).exe_hash
        assert h_default == h_lto


class TestExplainClosestReference:
    """`explain` used to diff only references[0] even for
    multi-reference configs, producing misleading mismatch reports."""

    def _result(self, text):
        return RunResult(text, "done")

    def test_explains_against_closest_reference(self):
        script = VerificationScript(
            ["alpha beta gamma delta\n", "one two three four\n"])
        report = script.explain(self._result("one two three FIVE\n"))
        # the mismatch must be located against the second (closest)
        # reference, not byte 0 of the first
        assert "three" in report
        assert "alpha" not in report

    def test_single_reference_unchanged(self):
        script = VerificationScript(["expected output\n"])
        report = script.explain(self._result("expected outXut\n"))
        assert "mismatch at byte" in report

    def test_matching_any_reference_is_ok(self):
        script = VerificationScript(["aaa\n", "bbb\n"])
        assert script.check(self._result("bbb\n"))
        assert script.explain(self._result("bbb\n")) == "ok"

    def test_failed_run_explained_first(self):
        script = VerificationScript(["x\n", "y\n"])
        report = script.explain(RunResult("", "trapped", "segfault"))
        assert "run failed" in report


class TestFrequencyWorklist:
    """The residue-class worklist is consumed from the left thousands of
    times on big benchmarks; it must be a deque, not an O(n) list.pop(0)."""

    def test_worklist_is_a_deque(self):
        from repro.oraql.strategies.frequency import FrequencyStrategy
        src = inspect.getsource(FrequencyStrategy._search)
        assert "popleft" in src
        assert ".pop(0)" not in src

    def test_frequency_strategy_still_correct(self):
        hazard = """
void shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
int main() {
  double buf[64];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  shift(buf + 1, buf, 60);
  double s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + buf[i] * i; }
  printf("%.6f\\n", s);
  return 0;
}
"""
        cfg = BenchmarkConfig(name="t", sources=[SourceFile("t.c", hazard)])
        chunked = ProbingDriver(cfg, strategy="chunked").run()
        freq = ProbingDriver(cfg, strategy="frequency").run()
        assert freq.pess_unique == chunked.pess_unique >= 1
