"""Tests for the configuration fan-out's resilience contract: dying
workers are detected and their configurations requeued; results under
worker loss stay bit-identical to fault-free runs."""

from repro.faults.injector import FaultInjector, FaultSpec
from repro.oraql import (
    BenchmarkConfig,
    ParallelProbingDriver,
    ProbingDriver,
    SourceFile,
)

# wide enough that the chunked binary search probes several times
# (mirrors tests/test_oraql_parallel.py)
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
  shift(buf + 1, buf, 60);
  double acc = 0.0;
  for (int i = 0; i < 16; i++) { acc = acc + p[i] + r[i] + t[i]; }
  for (int i = 0; i < 64; i++) { acc = acc + buf[i] * i; }
  printf("acc = %.6f\\n", acc);
  return 0;
}
"""

SAFE_SRC = """
int main() {
  double x[8];
  for (int i = 0; i < 8; i++) { x[i] = i * 2.0; }
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s = s + x[i]; }
  printf("sum = %.1f\\n", s);
  return 0;
}
"""


def cfg_of(src, name="t"):
    return BenchmarkConfig(name=name, sources=[SourceFile("t.c", src)])


class TestFanoutResilience:
    def test_worker_kill_requeues_and_completes(self, tmp_path):
        # plant a hard worker kill (os._exit) in the first attempt of
        # every worker; the engine must detect the broken pool, requeue,
        # and still produce reports identical to a fault-free fan-out
        configs = [cfg_of(WIDE_HAZARD_SRC, "hazard"),
                   cfg_of(SAFE_SRC, "safe")]
        refs = {c.name: ProbingDriver(c).run() for c in configs}
        plan = FaultInjector([FaultSpec("worker-kill",
                                        at=1)]).to_json_plan()
        reports = ParallelProbingDriver(
            configs, jobs=2, journal_dir=str(tmp_path / "journal"),
            fault_plan=plan).run()
        assert len(reports) == 2
        for rep in reports:
            assert not rep.failed, rep.error
            ref = refs[rep.config_name]
            assert rep.pessimistic_indices == ref.pessimistic_indices
            assert rep.fully_optimistic == ref.fully_optimistic
        # the hazard config reaches probe #1, dies, and is requeued (the
        # fully optimistic safe config never reaches the kill site)
        hazard = next(r for r in reports if r.config_name == "hazard")
        assert any("requeued" in e for e in hazard.worker_errors)

    def test_unrecoverable_config_reported_not_dropped(self, tmp_path):
        # a worker that dies on every attempt exhausts the retry budget:
        # its config must come back as a failed report while the healthy
        # config's results survive
        configs = [cfg_of(WIDE_HAZARD_SRC, "hazard"),
                   cfg_of(SAFE_SRC, "safe")]
        plan = FaultInjector([
            FaultSpec("worker-kill", at=1, attempt=a)
            for a in range(6)]).to_json_plan()
        reports = ParallelProbingDriver(
            configs, jobs=2, journal_dir=str(tmp_path / "journal"),
            fault_plan=plan).run()
        assert len(reports) == 2
        by_name = {r.config_name: r for r in reports}
        assert by_name["hazard"].failed
        assert "worker lost" in by_name["hazard"].error
        assert by_name["hazard"].triage_counts.get("worker-lost") == 1
        assert not by_name["safe"].failed
