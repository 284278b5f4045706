"""A compile hands replayed IR bodies to its program only when something
reads them (:class:`repro.oraql.fnmemo.Handover`).

* A probe whose verdict the session's hash cache holds copies or moves
  no stored body and verifies only the functions its compile ran live.
* The report's programs outlive the session's function memo: after the
  driver returns and its compiler switches to other sources, they run,
  print and render their records as a compile without the memo does.
* A program that runs takes no body for a function whose decoded code
  the session already shares.
* A report reads only the bodies its pessimistic records name.
"""

from __future__ import annotations

import pytest

from repro.ir import print_module, verifier
from repro.oraql import fnmemo
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.report import render_query
from repro.oraql.sequence import DecisionSequence
from repro.workloads.base import get_config


class _Counts:
    """Wraps the hand-over's copy, move and verify functions: counts the
    stored bodies given to programs (a copy from a kept prefix is a
    materialization, not a hand-over) and the functions verified."""

    def __init__(self, monkeypatch, compiler):
        self.given = 0
        self.verified = 0

        def counted(real):
            def wrapper(src, dst):
                if not any(src.parent is k.module
                           for k in compiler._kept.values()):
                    self.given += 1
                return real(src, dst)
            return wrapper

        def verify(fn, dt=None):
            self.verified += 1
            return real_verify(fn, dt)

        real_verify = verifier.verify_function
        monkeypatch.setattr(fnmemo, "clone_body", counted(fnmemo.clone_body))
        monkeypatch.setattr(fnmemo, "move_body", counted(fnmemo.move_body))
        monkeypatch.setattr(verifier, "verify_function", verify)
        monkeypatch.setattr(fnmemo, "verify_function", verify)

    def now(self):
        return self.given, self.verified


@pytest.mark.parametrize("row", ["TestSNAP-openmp", "LULESH-seq"])
def test_cached_probes_take_no_body(row, monkeypatch):
    compiler = Compiler()
    counts = _Counts(monkeypatch, compiler)
    driver = ProbingDriver(get_config(row), compiler=compiler)
    report = driver._report
    probes = []
    real_test = driver._test

    def test(sequence):
        compiles = report.compiles
        live = report.function_memo.get("functions materialized", 0)
        given, verified = counts.now()
        outcome = real_test(sequence)
        if report.compiles > compiles and outcome.from_cache:
            probes.append((counts.given - given,
                           counts.verified - verified,
                           report.function_memo["functions materialized"]
                           - live))
        return outcome

    driver._test = test
    driver.run()
    assert len(probes) >= 5
    # no stored body moved or copied, and only the live functions checked
    assert [(given, verified) for given, verified, _ in probes] \
        == [(0, live) for _, _, live in probes]
    # the report reads the final program's pessimistic records: the
    # functions they name have their bodies, and the others still wait
    final = report.final_program
    pessimistic = report.pessimistic_records
    named = {rec.scope for rec in pessimistic}
    assert named
    assert all(rec.a is not None and rec.b is not None
               for rec in pessimistic)
    waiting = set(final.handover.pending) if final.handover else set()
    assert not waiting & named
    # a later read of every record takes the rest
    given = counts.given
    assert all(rec.a is not None and rec.b is not None
               for rec in final.oraql.records)
    assert final.handover is None or not final.handover.pending
    assert counts.given == given + len(waiting)
    compiler.drop_prefixes()


def test_a_fully_optimistic_report_takes_no_body(monkeypatch):
    """No pessimistic record, so the report reads no replayed body."""
    compiler = Compiler()
    counts = _Counts(monkeypatch, compiler)
    report = ProbingDriver(get_config("TestSNAP-seq"),
                           compiler=compiler).run()
    assert report.fully_optimistic and report.pessimistic_records == []
    assert counts.given == 0
    assert report.final_program.handover.pending
    compiler.drop_prefixes()


@pytest.fixture(scope="module")
def outliving_reports():
    """Two TestSNAP-openmp sessions on one compiler (the second replays
    its baseline as well), then a compile of other sources, which drops
    the memos the reports' programs were replayed from."""
    cfg = get_config("TestSNAP-openmp")
    compiler = Compiler()
    ProbingDriver(cfg, compiler=compiler).run()
    report = ProbingDriver(cfg, compiler=compiler).run()
    baseline = report.baseline_program.handover
    replayed = baseline is not None and bool(baseline.pending)
    compiler.compile(get_config("TestSNAP-seq"))
    yield cfg, report, replayed
    compiler.drop_prefixes()


def _bypassing(cfg, bits):
    """The program a compile without the function memo builds: an
    announcing compile runs every pass itself."""
    if bits is None:
        return Compiler().compile(cfg, debug_pass_executions=True)
    return Compiler().compile(cfg, DecisionSequence(bits),
                              oraql_enabled=True, debug_pass_executions=True)


@pytest.mark.parametrize("which", ["baseline", "final"])
def test_report_programs_outlive_the_memo(outliving_reports, which):
    cfg, report, replayed = outliving_reports
    assert replayed  # the second session's baseline had no bodies
    if which == "baseline":
        prog, bits = report.baseline_program, None
    else:
        prog, bits = report.final_program, report.final_sequence.bits
    fresh = _bypassing(cfg, bits)
    got, want = prog.run(), fresh.run()
    assert got.ok and want.ok
    assert (got.stdout, got.cycles) == (want.stdout, want.cycles)
    assert print_module(prog.module) == print_module(fresh.module)
    if bits is not None:
        rendered = [render_query(r) for r in prog.oraql.pessimistic_records()]
        assert rendered
        assert rendered == [render_query(r)
                            for r in fresh.oraql.pessimistic_records()]


def test_a_run_takes_no_body_whose_code_is_shared(monkeypatch):
    cfg = get_config("LULESH-seq")
    compiler = Compiler()
    first = compiler.compile(cfg, DecisionSequence([]), oraql_enabled=True)
    expected = first.run()
    again = compiler.compile(cfg, DecisionSequence([]), oraql_enabled=True)
    waiting = set(again.handover.pending)
    assert waiting == set(again.fn_hashes) - {
        fn.name for fn in again._module.functions.values()
        if fn.is_declaration}
    shared = {(name, body) for name, body, *_ in compiler._code}
    taken = []
    real = fnmemo._hand_over

    def hand_over(fn, end, records):
        taken.append(fn.name)
        real(fn, end, records)

    monkeypatch.setattr(fnmemo, "_hand_over", hand_over)
    got = again.run()
    assert (got.stdout, got.cycles) == (expected.stdout, expected.cycles)
    assert not [name for name in taken
                if (name, again.fn_hashes[name]) in shared]
    # what ran without a body was decoded by the first program
    assert waiting - set(taken)
    compiler.drop_prefixes()


_MAIN_TU = """
void scale(double* d, double* s, int n);
int main() {
  double a[8]; double b[8];
  for (int i = 0; i < 8; i++) { a[i] = i; b[i] = 8.0 - i; }
  scale(a, b, 8);
  double t = 0.0;
  for (int i = 0; i < 8; i++) { t = t + a[i] * b[i]; }
  printf("t = %.4f\\n", t);
  return 0;
}
"""

_LIB_TU = """
void scale(double* d, double* s, int n) {
  for (int i = 0; i < n; i++) { d[i] = s[i] * 0.5 + d[i]; }
}
"""


def test_units_optimized_apart_take_their_bodies_after_the_link():
    """Without LTO each unit is optimized alone and linked afterwards: a
    replayed body taken after the link calls the linked definition."""
    from repro.oraql.config import BenchmarkConfig, SourceFile

    cfg = BenchmarkConfig(name="two-tu", lto=False,
                          sources=[SourceFile("main.c", _MAIN_TU),
                                   SourceFile("lib.c", _LIB_TU)])
    compiler = Compiler()
    first = compiler.compile(cfg, DecisionSequence([]), oraql_enabled=True)
    again = compiler.compile(cfg, DecisionSequence([]), oraql_enabled=True)
    assert set(again.handover.pending) == {"main", "scale"}
    fresh = _bypassing(cfg, [])
    assert again.exe_hash == first.exe_hash == fresh.exe_hash
    assert again.run().stdout == fresh.run().stdout == "t = 186.0000\n"
    assert print_module(again.module) == print_module(fresh.module)
    compiler.drop_prefixes()
