"""The final program is the last passing probe's whenever the final
sequence repeats its answers; otherwise the final sequence is compiled,
and run only when its executable has no passing verdict.

* The compile-anyway referee (``helpers.final_reuse_checking_driver``)
  on a fully optimistic row and on MiniFE-openmp, both strategies,
  traced and untraced: the reused program equals a fresh compile of the
  final sequence on everything read from it.
* The paths that compile the final program: a warm verdict cache and a
  finished journal resumed (every probe replayed; the final run is
  skipped, its executable's verdict known), a budget that ran out (the
  final program is compiled and run), and a final compile whose
  executable differs from its answer log's; and a session resumed
  after a kill, which gives the cold session's answers.

``benchmarks/test_final_reuse.py`` runs the referee on all 16 rows.
"""

from __future__ import annotations

import itertools

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from helpers import final_reuse_checking_driver
from repro.faults.injector import FaultInjector, FaultSpec, SessionKilled
from repro.oraql.cache import VerdictCache
from repro.oraql.compiler import CompiledProgram, Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.journal import SessionJournal
from repro.oraql.replay import AnswerReplayError, answer_log
from repro.oraql.report import render_report
from repro.oraql.sequence import sequence_from_pessimistic_set
from repro.oraql.strategies import strategy_names
from repro.trace import QueryTrace
from repro.workloads.base import get_config

#: a fully optimistic row (one probe) and the cheapest bisecting one
ROWS = ("GridMini-offload", "MiniFE-openmp")


@pytest.mark.parametrize(
    "row,strategy,traced",
    list(itertools.product(ROWS, strategy_names(), (False, True))))
def test_reused_final_program_equals_a_fresh_compile(row, strategy, traced):
    driver = final_reuse_checking_driver(
        get_config(row), strategy=strategy,
        trace=QueryTrace() if traced else None)
    report = driver.run()
    assert driver.checked == 1
    assert report.final_program.exe_hash == report.final_exe_hash
    # the last passing probe: the empty sequence (compile 2, after the
    # baseline) on an optimistic row, a later probe on a bisecting one
    assert (report.final_reused == 2) == report.fully_optimistic
    assert "final program reused from compile " \
        f"#{report.final_reused}" in render_report(report)
    if traced:
        finals = [r for r in driver.trace.records
                  if r["t"] == "compile" and r["label"] == "final"]
        assert finals == [{"t": "compile", "reuses": report.final_reused,
                           "label": "final",
                           "bits": "".join(map(str,
                                               report.final_sequence.bits))}]


def test_an_equal_exe_hash_from_other_answers_is_not_reused():
    """Answering q32 and q64 may-alias too builds MiniFE-openmp's final
    executable, but asks and counts differently: only a probe whose
    answer log the final sequence repeats becomes the final program."""
    cfg = get_config("MiniFE-openmp")
    final_seq = sequence_from_pessimistic_set({0})
    for pess, reused in (({0, 32, 64}, False), ({0}, True)):
        driver = ProbingDriver(cfg)
        seq = sequence_from_pessimistic_set(pess)
        probe = driver.compiler.compile(cfg, sequence=seq,
                                        oraql_enabled=True)
        n = probe.oraql.unique_queries
        driver._passing = (probe, 7, answer_log(seq.bits, n))
        # the memo knows that the final answers build this executable
        driver._memo.add(answer_log(final_seq.bits, n), probe.exe_hash)
        final = driver._final_program(final_seq)
        assert final.exe_hash == probe.exe_hash
        assert (final is probe) == reused
        assert driver._report.final_reused == (7 if reused else None)
        assert final.oraql.pess_unique == 1
        assert probe.oraql.pess_unique == len(pess)


class _Runs:
    """Records every program run (the executor's probe runs included),
    so a test can count the runs of the report's final program."""

    def __init__(self, monkeypatch):
        self.programs = []
        run = CompiledProgram.run

        def recording(prog, *args, **kwargs):
            self.programs.append(prog)
            return run(prog, *args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "run", recording)

    def of(self, prog):
        return sum(p is prog for p in self.programs)


def _answers(report):
    return (report.pessimistic_indices, report.final_exe_hash,
            report.opt_unique, report.opt_cached, report.pess_unique,
            report.pess_cached, report.no_alias_oraql)


@pytest.fixture(scope="module")
def cold():
    """The plain MiniFE-openmp session every other one must match."""
    return ProbingDriver(get_config("MiniFE-openmp")).run()


def test_warm_cache_compiles_the_final_program_and_skips_its_run(
        tmp_path, monkeypatch, cold):
    cfg = get_config("MiniFE-openmp")
    ProbingDriver(cfg, verdict_cache=VerdictCache(str(tmp_path))).run()
    runs = _Runs(monkeypatch)
    report = ProbingDriver(
        cfg, verdict_cache=VerdictCache(str(tmp_path))).run()
    # every probe is replayed: the baseline and the final program are
    # the only compiles, and the final executable's passing verdict is
    # in the cache
    assert report.tests_run == 0 and report.compiles == 2
    assert report.final_reused is None
    assert runs.of(report.final_program) == 0
    assert _answers(report) == _answers(cold)
    assert "final program compiled" in render_report(report)


def _journaled(tmp_path, injector=None, resume=False):
    cfg = get_config("MiniFE-openmp")
    journal = SessionJournal.for_config(str(tmp_path), cfg, "chunked",
                                        resume=resume)
    return ProbingDriver(cfg, journal=journal, injector=injector).run()


def test_resumed_finished_journal_compiles_the_final_program(
        tmp_path, monkeypatch, cold):
    _journaled(tmp_path)
    runs = _Runs(monkeypatch)
    report = _journaled(tmp_path, resume=True)
    assert report.tests_run == 0 and report.compiles == 2
    assert report.final_reused is None
    assert runs.of(report.final_program) == 0
    assert _answers(report) == _answers(cold)


def test_session_resumed_after_a_kill_skips_the_final_run(
        tmp_path, monkeypatch, cold):
    with pytest.raises(SessionKilled):
        _journaled(tmp_path, FaultInjector([FaultSpec("session-kill", 3)]))
    runs = _Runs(monkeypatch)
    report = _journaled(tmp_path, resume=True)
    assert report.tests_replayed > 0 and report.compiles_skipped > 0
    # the probes after the kill compile again, the last one the final
    # sequence's: its run is the final program's only one
    assert report.final_reused is not None
    assert runs.of(report.final_program) == 1
    assert _answers(report) == _answers(cold)


def test_budget_exhausted_session_compiles_and_runs_its_final_program(
        monkeypatch):
    runs = _Runs(monkeypatch)
    report = ProbingDriver(get_config("MiniFE-openmp"), max_tests=1).run()
    assert report.budget_exhausted and report.tests_run == 1
    # the one test was the failing empty sequence: nothing to reuse,
    # and the final executable's verdict is unknown
    assert report.final_reused is None
    assert runs.of(report.final_program) == 1


def test_a_final_compile_off_its_answer_log_is_an_answer_replay_error(
        tmp_path, monkeypatch):
    cfg = get_config("MiniFE-openmp")
    ProbingDriver(cfg, verdict_cache=VerdictCache(str(tmp_path))).run()
    compile_ = Compiler.compile

    def nondeterministic(self, config, sequence=None, **kwargs):
        prog = compile_(self, config, sequence=sequence, **kwargs)
        if sequence is not None:
            prog.exe_hash = "0" * 64
        return prog

    monkeypatch.setattr(Compiler, "compile", nondeterministic)
    # warm: every probe is replayed, so the final compile is the only
    # one with ORAQL on, and its answers are known
    warm = ProbingDriver(cfg, verdict_cache=VerdictCache(str(tmp_path)))
    with pytest.raises(AnswerReplayError, match="different executable"):
        warm.run()
