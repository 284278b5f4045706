"""Differential proof that tracing is purely observational.

For three workloads and every registered probing strategy, a session
run with a full-event trace sink must reproduce the untraced session
exactly: same pessimistic set, same final/baseline executable hashes,
same non-timing report counters.  A chaos smoke then shows that a
session killed mid-probing (via ``repro.faults``) can never tear or
duplicate a ``--trace-out`` file: the exporter is atomic and only runs
on session completion.
"""

import pytest

from repro.faults.injector import FaultInjector, FaultSpec, SessionKilled
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.sequence import DecisionSequence
from repro.oraql.strategies import strategy_names
from repro.trace import QueryTrace
from repro.trace import export
from repro.workloads.base import get_config

from test_oraql_driver import HAZARD_SRC, SAFE_SRC, cfg_of

# third workload: a store/load hazard in a single loop body plus an
# independent reduction, so DSE and GVN issue queries that SAFE/HAZARD
# do not
PARTIAL_SRC = """
void stencil(double* out, double* in, int n) {
  for (int i = 1; i < n - 1; i++) {
    out[i] = (in[i - 1] + in[i] + in[i + 1]) / 3.0;
  }
}
int main() {
  double a[48]; double b[48];
  for (int i = 0; i < 48; i++) { a[i] = i * 0.25; b[i] = 0.0; }
  stencil(b, a, 48);
  stencil(a, b, 48);
  double s = 0.0;
  for (int i = 0; i < 48; i++) { s = s + a[i] + b[i]; }
  printf("s = %.6f\\n", s);
  return 0;
}
"""

WORKLOADS = [("safe", SAFE_SRC), ("hazard", HAZARD_SRC),
             ("partial", PARTIAL_SRC)]


def _fingerprint(report):
    return {
        "pessimistic": list(report.pessimistic_indices),
        "final_hash": report.final_program.exe_hash
        if report.final_program else None,
        "baseline_hash": report.baseline_program.exe_hash
        if report.baseline_program else None,
        "opt": (report.opt_unique, report.opt_cached),
        "pess": (report.pess_unique, report.pess_cached),
        "no_alias": (report.no_alias_original, report.no_alias_oraql),
        "compiles": report.compiles,
        "tests": (report.tests_run, report.tests_cached,
                  report.tests_deduced),
        "triage": dict(report.triage_counts),
        "unique_by_pass": dict(report.unique_by_pass),
        "pass_executions": report.pass_executions,
        "analysis": (dict(report.analysis_builds),
                     dict(report.analysis_preserved_hits)),
    }


@pytest.mark.parametrize("strategy", strategy_names())
@pytest.mark.parametrize("name,src", WORKLOADS)
def test_tracing_is_observational(name, src, strategy):
    plain = ProbingDriver(cfg_of(src, name), strategy=strategy).run()
    trace = QueryTrace()
    traced = ProbingDriver(cfg_of(src, name), strategy=strategy,
                           trace=trace).run()
    assert _fingerprint(traced) == _fingerprint(plain)
    # the trace actually observed the session it claims to mirror
    assert trace.records
    done = [r for r in trace.records if r["t"] == "done"]
    assert len(done) == 1
    assert done[0]["pessimistic"] == list(plain.pessimistic_indices)


@pytest.mark.parametrize("row,remark_pass", [
    ("MiniFE-openmp", "SLP Vectorizer"),
    ("Quicksilver-openmp", "Dead Store Elimination")])
def test_traced_compile_matches_untraced(row, remark_pass):
    """Rows whose remark is rendered for an instruction the pass erased:
    a traced compile must build the same executable and issue the same
    ORAQL queries as an untraced one."""
    cfg = get_config(row)

    def compile_(trace=None):
        prog = Compiler().compile(cfg, DecisionSequence(),
                                  oraql_enabled=True, trace=trace)
        return prog.exe_hash, [(r.index, r.optimistic, r.scope,
                                r.issuing_pass) for r in prog.oraql.records]

    trace = QueryTrace()
    assert compile_(trace) == compile_()
    assert any(r["t"] == "r" and r["pass"] == remark_pass
               for r in trace.records)


@pytest.mark.parametrize("record_events", [True, False])
def test_timer_only_sink_is_also_observational(record_events):
    plain = ProbingDriver(cfg_of(HAZARD_SRC, "hazard")).run()
    trace = QueryTrace(record_events=record_events)
    traced = ProbingDriver(cfg_of(HAZARD_SRC, "hazard"), trace=trace).run()
    assert _fingerprint(traced) == _fingerprint(plain)


class TestChaosSmoke:
    """A mid-session fault must never corrupt or duplicate --trace-out."""

    def _traced_run(self, path, injector=None):
        trace = QueryTrace()
        driver = ProbingDriver(cfg_of(HAZARD_SRC, "hazard"),
                               injector=injector, trace=trace)
        report = driver.run()
        export.write_jsonl(path, trace.records)
        return report

    def test_killed_session_leaves_previous_trace_intact(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._traced_run(path)  # a completed session wrote a good trace
        before = export.read_jsonl(path)

        injector = FaultInjector([FaultSpec("session-kill", at=1)])
        with pytest.raises(SessionKilled):
            self._traced_run(path, injector=injector)
        assert injector.fired, "the planted fault must actually fire"

        # the file still holds exactly the first session's trace: not
        # torn, not duplicated, not partially overwritten
        assert export.read_jsonl(path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_killed_first_session_writes_nothing(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        injector = FaultInjector([FaultSpec("session-kill", at=0)])
        with pytest.raises(SessionKilled):
            self._traced_run(path, injector=injector)
        assert list(tmp_path.iterdir()) == []

    def test_failed_serialization_never_tears_the_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        export.write_jsonl(path, [{"t": "meta"}])
        before = export.read_jsonl(path)
        with pytest.raises(TypeError):
            export.write_jsonl(path, [{"t": "meta"}, {"bad": object()}])
        assert export.read_jsonl(path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_survivable_fault_still_produces_one_clean_trace(self, tmp_path):
        """A transient compiler fault (retried by the executor) must not
        duplicate events in the trace of the surviving session."""
        path = str(tmp_path / "trace.jsonl")
        injector = FaultInjector([FaultSpec("compiler-error", at=1)])
        report = self._traced_run(path, injector=injector)
        assert injector.fired
        assert report.retries >= 1
        records = export.read_jsonl(path)
        assert [r for r in records if r["t"] == "meta"] \
            == [{"t": "meta", "version": 1, "config": "hazard",
                 "strategy": "chunked"}]
        assert len([r for r in records if r["t"] == "done"]) == 1
