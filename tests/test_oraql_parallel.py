"""Tests for the parallel probing engine: the persistent verdict cache,
fan-out across configurations, budget-graceful degradation, and the
compile-determinism invariant the shared cache depends on."""

import os
import subprocess
import sys

import pytest

from repro.oraql import (
    BenchmarkConfig,
    Compiler,
    DecisionSequence,
    ParallelProbingDriver,
    ProbingDriver,
    SourceFile,
    VerdictCache,
    config_fingerprint,
)

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

#: many incomparable pointer-pair queries inside one function plus a
#: genuine overlap late in main: forces a deep chunked binary search
WIDE_HAZARD_SRC = """
void sweep(double* a, double* b, double* c, double* d, double* e,
           double* f, int n) {
  for (int i = 0; i < n; i++) { a[i] = b[i] + 1.0; }
  for (int i = 0; i < n; i++) { c[i] = d[i] + a[i]; }
  for (int i = 0; i < n; i++) { e[i] = f[i] + c[i]; }
  for (int i = 0; i < n; i++) { b[i] = e[i] * 0.5; }
}
void shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
int main() {
  double p[16]; double q[16]; double r[16];
  double s[16]; double t[16]; double u[16];
  double buf[64];
  for (int i = 0; i < 16; i++) {
    p[i] = i; q[i] = 2.0 * i; r[i] = 0.0;
    s[i] = 3.0 * i; t[i] = 0.0; u[i] = 1.0;
  }
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  sweep(p, q, r, s, t, u, 16);
  shift(buf + 1, buf, 60);         // the dangerous overlap
  double acc = 0.0;
  for (int i = 0; i < 16; i++) { acc = acc + p[i] + r[i] + t[i]; }
  for (int i = 0; i < 64; i++) { acc = acc + buf[i] * i; }
  printf("acc = %.6f\\n", acc);
  return 0;
}
"""


def cfg_of(src, name="t"):
    return BenchmarkConfig(name=name, sources=[SourceFile("t.c", src)])


class TestVerdictCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        key = VerdictCache.key("fp", "hash1")
        assert cache.get_record(key) is None
        cache.put(key, True)
        assert cache.get_record(key)[0] is True
        assert cache.hits == 1 and cache.misses == 1

    def test_survives_restart(self, tmp_path):
        first = VerdictCache(str(tmp_path))
        first.put(VerdictCache.key("fp", "h1"), True)
        first.put(VerdictCache.key("fp", "h2"), False)
        reopened = VerdictCache(str(tmp_path))
        assert len(reopened) == 2
        assert reopened.get_record(VerdictCache.key("fp", "h1"))[0] is True
        assert reopened.get_record(VerdictCache.key("fp", "h2"))[0] is False

    def test_ignores_torn_and_foreign_lines(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        cache.put(VerdictCache.key("fp", "h1"), True)
        with open(cache.path, "a") as f:
            f.write('{"v": 999, "key": "other:h", "ok": true}\n')
            f.write("{torn line\n")
            f.write("\n")
        reopened = VerdictCache(str(tmp_path))
        assert len(reopened) == 1

    def test_refresh_sees_concurrent_appends(self, tmp_path):
        a = VerdictCache(str(tmp_path))
        b = VerdictCache(str(tmp_path))
        a.put(VerdictCache.key("fp", "h1"), True)
        assert b.get_record(VerdictCache.key("fp", "h1")) is None
        b.refresh()
        assert b.get_record(VerdictCache.key("fp", "h1"))[0] is True

    def test_fingerprint_separates_configs(self):
        fa = config_fingerprint(cfg_of(HAZARD_SRC, "a"))
        fb = config_fingerprint(cfg_of(WIDE_HAZARD_SRC, "a"))
        fc = config_fingerprint(cfg_of(HAZARD_SRC, "a"))
        assert fa != fb
        assert fa == fc


class TestPersistentVerdicts:
    def test_warm_run_reuses_verdicts(self, tmp_path):
        cold = ProbingDriver(cfg_of(HAZARD_SRC),
                             verdict_cache=VerdictCache(str(tmp_path))).run()
        warm = ProbingDriver(cfg_of(HAZARD_SRC),
                             verdict_cache=VerdictCache(str(tmp_path))).run()
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.cache_hits > 0
        assert warm.tests_run < cold.tests_run
        assert warm.pessimistic_indices == cold.pessimistic_indices

    def test_cache_shared_across_strategies(self, tmp_path):
        chunked = ProbingDriver(
            cfg_of(HAZARD_SRC), strategy="chunked",
            verdict_cache=VerdictCache(str(tmp_path))).run()
        freq = ProbingDriver(
            cfg_of(HAZARD_SRC), strategy="frequency",
            verdict_cache=VerdictCache(str(tmp_path))).run()
        # the strategies revisit some of the same executables
        assert freq.cache_hits > 0
        assert freq.pess_unique == chunked.pess_unique

    def test_uncached_driver_reports_no_traffic(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC)).run()
        assert rep.cache_hits == 0 and rep.cache_misses == 0


class TestBudgetGracefulDegradation:
    def test_exhausted_budget_returns_partial_report(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC), max_tests=2).run()
        assert rep.budget_exhausted
        assert rep.tests_run <= 2
        assert not rep.fully_optimistic
        assert isinstance(rep.pessimistic_indices, list)

    def test_zero_budget_still_returns(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC), max_tests=0).run()
        assert rep.budget_exhausted
        assert rep.tests_run == 0
        assert rep.pessimistic_indices == []

    def test_ample_budget_not_flagged(self):
        rep = ProbingDriver(cfg_of(HAZARD_SRC)).run()
        assert not rep.budget_exhausted

    @pytest.mark.parametrize("strategy", ["chunked", "frequency"])
    def test_partial_set_is_prefix_of_full_probing(self, strategy):
        full = ProbingDriver(cfg_of(WIDE_HAZARD_SRC),
                             strategy=strategy).run()
        part = ProbingDriver(cfg_of(WIDE_HAZARD_SRC), strategy=strategy,
                             max_tests=2).run()
        assert part.budget_exhausted
        # partial knowledge never invents dangerous queries the full
        # search would not find
        assert set(part.pessimistic_indices) <= set(full.pessimistic_indices)

    def test_summary_and_report_mention_budget(self):
        from repro.oraql import render_report
        rep = ProbingDriver(cfg_of(HAZARD_SRC), max_tests=1).run()
        assert "BUDGET EXHAUSTED" in rep.summary()
        assert "BUDGET EXHAUSTED" in render_report(rep)


class TestParallelDriver:
    def test_fanout_matches_sequential(self):
        sequential = [ProbingDriver(cfg_of(HAZARD_SRC, "a")).run(),
                      ProbingDriver(cfg_of(WIDE_HAZARD_SRC, "b")).run()]
        parallel = ParallelProbingDriver(
            [cfg_of(HAZARD_SRC, "a"), cfg_of(WIDE_HAZARD_SRC, "b")],
            jobs=2).run()
        assert [r.config_name for r in parallel] == ["a", "b"]
        for seq_rep, par_rep in zip(sequential, parallel):
            assert par_rep.pessimistic_indices == seq_rep.pessimistic_indices
            assert par_rep.fully_optimistic == seq_rep.fully_optimistic
            assert par_rep.opt_unique == seq_rep.opt_unique
            assert par_rep.pess_unique == seq_rep.pess_unique

    def test_parallel_warm_cache(self, tmp_path):
        configs = [cfg_of(HAZARD_SRC, "a"), cfg_of(WIDE_HAZARD_SRC, "b")]
        cold = ParallelProbingDriver(configs, jobs=2,
                                     cache_dir=str(tmp_path)).run()
        warm = ParallelProbingDriver(configs, jobs=2,
                                     cache_dir=str(tmp_path)).run()
        for c, w in zip(cold, warm):
            assert w.cache_hits > 0
            assert w.tests_run < c.tests_run
            assert w.pessimistic_indices == c.pessimistic_indices

    def test_jobs_one_falls_back_to_sequential(self):
        seq_rep = ProbingDriver(cfg_of(HAZARD_SRC)).run()
        rep = ParallelProbingDriver(cfg_of(HAZARD_SRC), jobs=1).run()[0]
        assert rep.pess_unique >= 1
        assert rep.pessimistic_indices == seq_rep.pessimistic_indices

    def test_rejects_empty_and_bad_inputs(self):
        with pytest.raises(ValueError):
            ParallelProbingDriver([])
        with pytest.raises(ValueError):
            ParallelProbingDriver(cfg_of(HAZARD_SRC), jobs=0)

    def test_detached_report_still_renders(self):
        from repro.oraql import render_report
        rep = ProbingDriver(cfg_of(HAZARD_SRC)).run()
        dump_before = render_report(rep)
        rep.detach_for_transport()
        assert rep.final_program is None
        assert rep.pessimistic_records == []
        assert render_report(rep) == dump_before


class TestCompileDeterminism:
    """Same config + same sequence ⇒ identical exe_hash — the invariant
    the shared verdict cache and the parallel engine both depend on."""

    SEQ = [1, 0, 1, 1, 0]

    def test_across_compiler_instances(self):
        hashes = set()
        for _ in range(2):
            prog = Compiler().compile(cfg_of(HAZARD_SRC),
                                      sequence=DecisionSequence(self.SEQ),
                                      oraql_enabled=True)
            hashes.add(prog.exe_hash)
        assert len(hashes) == 1

    def test_across_subprocesses(self):
        """Different interpreter processes (with different hash seeds)
        must agree on the hash, or cached verdicts would be unreachable
        after a restart."""
        snippet = (
            "from repro.oraql import (BenchmarkConfig, SourceFile, "
            "Compiler, DecisionSequence)\n"
            f"src = r'''{HAZARD_SRC}'''\n"
            "cfg = BenchmarkConfig(name='t', "
            "sources=[SourceFile('t.c', src)])\n"
            f"prog = Compiler().compile(cfg, "
            f"sequence=DecisionSequence({self.SEQ}), oraql_enabled=True)\n"
            "print(prog.exe_hash)\n"
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hashes = set()
        for seed in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={**os.environ,
                     "PYTHONPATH": os.path.join(repo_root, "src"),
                     "PYTHONHASHSEED": seed})
            hashes.add(out.stdout.strip())
        assert len(hashes) == 1 and "" not in hashes
