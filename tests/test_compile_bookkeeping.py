"""Compile bookkeeping: per-TU counter folding, per-function body
hashes, and kill-and-resume bit-identity of a probing session."""

import pytest

from repro.analysis.aliasing import AAResults
from repro.faults.injector import FaultInjector, FaultSpec, SessionKilled
from repro.frontend import compile_source
from repro.ir import function_hash
from repro.oraql import ProbingDriver, SessionJournal
from repro.oraql.compiler import Compiler
from repro.oraql.pass_ import DumpFlags
from repro.oraql.sequence import DecisionSequence
from repro.passes import CompilationContext

from test_oraql_driver import HAZARD_SRC, cfg_of

# several functions with real aliasing hazards
SRC = """
void scale(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
void axpy(double* y, double* x, int n) {
  for (int i = 0; i < n; i++) { y[i] = y[i] + 2.0 * x[i]; }
}
double dot(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i] * b[i]; }
  return s;
}
int main() {
  double buf[64];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  scale(buf + 1, buf, 60);
  axpy(buf, buf + 8, 32);
  printf("s = %.6f\\n", dot(buf, buf + 2, 48));
  return 0;
}
"""


class TestMergeHelpers:
    def test_aaresults_merge_folds_counters(self):
        a = AAResults([])
        b = AAResults([])
        a.no_alias_count, a.must_alias_count, a.total_queries = 3, 1, 10
        b.no_alias_count, b.must_alias_count, b.total_queries = 2, 2, 7
        a.no_alias_by_pass["GVN"] = 3
        b.no_alias_by_pass["GVN"] = 1
        b.no_alias_by_pass["DSE"] = 1
        b.queries_by_issuer["LICM"] = 4
        a.merge(b)
        assert (a.no_alias_count, a.must_alias_count,
                a.total_queries) == (5, 3, 17)
        assert a.no_alias_by_pass["GVN"] == 4
        assert a.no_alias_by_pass["DSE"] == 1
        assert a.queries_by_issuer["LICM"] == 4

    def test_aaresults_merge_self_is_noop(self):
        a = AAResults([])
        a.no_alias_count = 3
        a.merge(a)
        assert a.no_alias_count == 3

    def test_context_merge_folds_everything(self):
        m1 = compile_source("int main() { return 0; }", "a.c")
        m2 = compile_source("int main() { return 0; }", "b.c")
        c1, c2 = CompilationContext(m1), CompilationContext(m2)
        c1.pass_executions, c2.pass_executions = 4, 6
        c2.aa.no_alias_count = 5
        c2.debug_log.append("from-tu-2")
        c1.merge(c2)
        assert c1.pass_executions == 10
        assert c1.aa.no_alias_count == 5
        assert "from-tu-2" in c1.debug_log
        # merging a context into itself must not double anything
        c1.merge(c1)
        assert c1.pass_executions == 10


class TestFnHashDump:
    def test_fn_hashes_match_bodies_and_dump_lines(self):
        cfg = cfg_of(SRC)
        prog = Compiler().compile(
            cfg, DecisionSequence(), oraql_enabled=True,
            dump=DumpFlags(first=True, optimistic=True, pessimistic=True))
        for name, fn in prog.ctx.module.functions.items():
            assert prog.fn_hashes[name] == function_hash(fn)
        lines = [l for l in prog.ctx.debug_log
                 if l.startswith("[fn-hash] ")]
        assert len(lines) == len(prog.fn_hashes)
        for line in lines:
            _, name, fh = line.split()
            assert prog.fn_hashes[name] == fh


class TestKillAndResume:
    """Kill a session mid-flight, resume it from the journal, and
    require the resumed report to match an uninterrupted run."""

    def test_resume_is_bit_identical(self, tmp_path):
        cfg = cfg_of(HAZARD_SRC)
        ref = ProbingDriver(cfg).run()
        assert not ref.fully_optimistic

        jdir = str(tmp_path / "journal")
        injector = FaultInjector([FaultSpec("session-kill", at=2)])
        journal = SessionJournal.for_config(jdir, cfg, "chunked")
        with pytest.raises(SessionKilled):
            ProbingDriver(cfg, journal=journal, injector=injector).run()

        resumed_journal = SessionJournal.for_config(jdir, cfg, "chunked",
                                                    resume=True)
        assert not resumed_journal.completed
        rep = ProbingDriver(cfg, journal=resumed_journal).run()
        assert rep.pessimistic_indices == ref.pessimistic_indices
        assert rep.final_program.exe_hash == ref.final_program.exe_hash
        assert rep.final_program.fn_hashes == ref.final_program.fn_hashes
        assert rep.tests_run + rep.tests_cached \
            == ref.tests_run + ref.tests_cached
        final = SessionJournal.for_config(jdir, cfg, "chunked",
                                          resume=True)
        assert final.completed
        assert final.pessimistic_from_done == ref.pessimistic_indices
