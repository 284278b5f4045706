"""Answer replay (``repro.oraql.replay``): a probe whose answers an
earlier compile already gave skips its compile.

Two referees hold it to exactness:

* one parametrized test over strategy × trace × verdict cache {none,
  cold, warm} × journal {fresh, resumed after a session kill}: every
  combination finds the same pessimistic set, final executable and
  baseline executable (the full product on one fully optimistic row, on
  MiniFE-openmp and on LULESH-mpi, except frequency there; cache ×
  journal on XSBench-seq);
* a driver that compiles every replayed probe anyway
  (``helpers.replay_checking_driver``) and asserts it builds the
  executable the memo named, in the cold and warm combinations of the
  same rows.

``benchmarks/test_answer_replay.py`` runs the frequency strategy's
LULESH-mpi combinations and the compile-anyway referee on every
bisecting Fig. 4 row.
"""

from __future__ import annotations

import itertools
import json

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from helpers import (
    ReplaySessions,
    check_replay_combination,
    replay_case_id,
)
from repro.fuzz.oracle import RefereeCompiler
from repro.oraql.cache import VerdictCache
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.journal import SessionJournal
from repro.oraql.replay import (
    AnswerMemo,
    AnswerReplayError,
    answer_log,
    code_digest,
    setup_digest,
)
from repro.oraql.strategies import strategy_names
from repro.workloads.base import get_config

#: MiniFE-openmp is the cheapest bisecting row (3 to 4 tests a session)
FULL_ROWS = ("LULESH-mpi", "MiniFE-openmp", "TestSNAP-seq")
CACHES = ("none", "cold", "warm")
JOURNALS = ("fresh", "resumed")
#: frequency's LULESH-mpi sessions take 4-8 s each (53 s for its twelve
#: combinations); benchmarks/test_answer_replay.py runs them
SLOW = {("LULESH-mpi", "frequency")}


def _cases():
    for row in FULL_ROWS:
        for strategy, traced, cache, journal in itertools.product(
                strategy_names(), (False, True), CACHES, JOURNALS):
            if (row, strategy) not in SLOW:
                yield row, strategy, traced, cache, journal
    for cache, journal in itertools.product(CACHES, JOURNALS):
        yield "XSBench-seq", "chunked", False, cache, journal


CASES = list(_cases())


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    return ReplaySessions(str(tmp_path_factory.mktemp("replay")))


@pytest.mark.parametrize("case", CASES, ids=replay_case_id)
def test_every_combination_gives_the_same_answers(sessions, case):
    check_replay_combination(sessions, case)


# -- the memo ----------------------------------------------------------------

class TestAnswerMemo:
    def test_lookup_matches_the_first_n_answers(self):
        memo = AnswerMemo()
        memo.add(answer_log([1, 0, 1, 1, 0], 3), "h")
        assert memo.lookup([1, 0, 1]) == ("h", 3)
        # answers past the sequence's end are no-alias
        assert memo.lookup([1, 0]) == ("h", 3)
        # decisions past the n-th query are never asked
        assert memo.lookup([1, 0, 1, 0, 0, 0]) == ("h", 3)
        assert memo.lookup([1, 1, 1]) is None
        assert memo.lookup([0, 0, 1]) is None

    def test_two_matching_entries_raise(self):
        memo = AnswerMemo()
        memo.add((2, frozenset()), "a")
        memo.add((3, frozenset()), "b")
        with pytest.raises(AnswerReplayError) as err:
            memo.lookup([])
        assert err.value.triage == "compiler-error"
        assert "n=2" in str(err.value) and "n=3" in str(err.value)

    def test_a_contradicting_executable_raises(self):
        memo = AnswerMemo()
        memo.add((2, frozenset({1})), "a")
        memo.add((2, frozenset({1})), "a")
        with pytest.raises(AnswerReplayError):
            memo.add((2, frozenset({1})), "b")

    def test_a_compile_contradicting_its_entry_stops_the_session(
            self, tmp_path):
        """A persisted answer record naming the wrong executable is
        caught by the first compile whose answers match it."""
        cfg = get_config("LULESH-mpi")
        cache = VerdictCache(str(tmp_path))
        key = VerdictCache.answer_key(
            ProbingDriver(cfg, verdict_cache=cache)._fingerprint,
            Compiler().replay_digest)
        n = Compiler().compile(cfg, oraql_enabled=True).oraql.unique_queries
        cache.put_answers(key, (n, frozenset()), "0" * 64)
        with pytest.raises(AnswerReplayError):
            ProbingDriver(cfg, verdict_cache=cache).run()

    def test_setup_digest_covers_every_compiler_setting(self):
        from repro.frontend import FrontendOptions
        default = Compiler().replay_digest
        assert default == setup_digest()
        assert len(code_digest()) == 16
        for other in (RefereeCompiler(),
                      Compiler(verify_analyses=True),
                      Compiler(FrontendOptions(strict_aliasing=False))):
            assert other.replay_digest != default


# -- the journal's answer logs ----------------------------------------------

class TestJournalSeeding:
    ROW = "LULESH-mpi"

    def _journaled(self, tmp_path, **kwargs):
        cfg = get_config(self.ROW)
        journal = SessionJournal.for_config(str(tmp_path), cfg, "chunked",
                                            **kwargs)
        ProbingDriver(cfg, journal=journal).run()
        return cfg, journal.path

    def _resume(self, cfg, tmp_path, compiler=None):
        journal = SessionJournal.for_config(
            str(tmp_path), cfg, "chunked", resume=True,
            setup=compiler.replay_digest if compiler else None)
        return ProbingDriver(cfg, compiler=compiler, journal=journal).run()

    def test_resume_replays_every_probe_compile(self, tmp_path):
        cfg, _ = self._journaled(tmp_path)
        report = self._resume(cfg, tmp_path)
        assert report.compiles == 2 and report.tests_run == 0
        assert report.compiles_skipped == report.tests_cached

    def test_lost_header_replays_only_verdicts(self, tmp_path):
        cfg, path = self._journaled(tmp_path)
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[1:])
        report = self._resume(cfg, tmp_path)
        assert report.tests_run == 0
        assert report.compiles > 2
        # only replays from answers this session compiled itself
        assert report.compiles_skipped < report.tests_cached

    def test_malformed_answer_log_is_corrupt(self, tmp_path):
        journal = SessionJournal(str(tmp_path / "j"), "fp", "chunked")
        journal.record_probe("h1", True, 3, "ok", [0, 2])
        journal.record_answers("h2", 3, [3])  # index past n
        resumed = SessionJournal(str(tmp_path / "j"), "fp", "chunked",
                                 resume=True)
        assert resumed.answer_logs == [(3, frozenset({0, 2}), "h1")]
        assert resumed.corrupt_records == 1
        assert resumed.setup == setup_digest()

    def test_other_setup_replays_only_verdicts(self, tmp_path):
        cfg, path = self._journaled(tmp_path)
        with open(path) as f:
            before = len(f.readlines())
        referee = RefereeCompiler()
        report = self._resume(cfg, tmp_path, compiler=referee)
        assert report.tests_run == 0 and report.compiles > 2
        # the referee session's answer logs stay out of a journal whose
        # header names another setup
        with open(path) as f:
            added = [json.loads(line) for line in f.readlines()[before:]]
        assert [r["t"] for r in added] == ["done"]
        fresh = self._resume(cfg, tmp_path)
        assert fresh.compiles == 2


def test_service_job_result_books_skipped_compiles(tmp_path):
    from repro.service.jobs import report_from_dict, report_to_dict

    cache = VerdictCache(str(tmp_path))
    ProbingDriver(get_config("LULESH-mpi"), verdict_cache=cache).run()
    report = ProbingDriver(get_config("LULESH-mpi"),
                           verdict_cache=cache).run()
    result = report_to_dict(report.detach_for_transport())
    assert result["compiles_skipped"] == report.compiles_skipped > 0
    assert report_from_dict(result).compiles_skipped == \
        report.compiles_skipped
    assert f"{report.compiles_skipped} skipped" in report.summary()


# -- the fuzz oracle ---------------------------------------------------------

def test_fuzz_oracle_seeding_spares_the_empty_sequence_compile(tmp_path):
    """The differential oracle seeds the verdict cache with the
    all-optimistic verdict and answer log, so its bisecting driver
    replays its first probe instead of compiling it."""
    from repro.fuzz.oracle import DifferentialOracle
    from repro.fuzz.generator import GeneratorOptions, generate_program

    seen = []
    real = ProbingDriver.run

    def run(self):
        report = real(self)
        seen.append(report)
        return report

    oracle = DifferentialOracle(
        verdict_cache=VerdictCache(str(tmp_path)))
    for seed in range(40):
        program = generate_program(seed, GeneratorOptions(hazard=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ProbingDriver, "run", run)
            result = oracle.check(seed, program.source)
        if result.optimism_divergent:
            break
    else:
        pytest.skip("no divergent seed in range")
    report = seen[0]
    assert report.compiles_skipped >= 1
    assert report.tests_cached >= 1 and report.cache_hits >= 1
