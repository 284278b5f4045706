"""Tests for the probing session journal: CRC'd records, corruption
tolerance, header identity checks, and kill-and-resume determinism
(the resumed session must retrace the interrupted one bit-identically)."""

import json
import os

import pytest

from repro.faults.injector import FaultInjector, FaultSpec, SessionKilled
from repro.oraql import (
    BenchmarkConfig,
    JournalError,
    ProbingDriver,
    SessionJournal,
    SourceFile,
)
from repro.oraql.strategies import strategy_names
from repro.records import decode_record, encode_record

from test_oraql_parallel import WIDE_HAZARD_SRC

HAZARD_SRC = """
void scale_shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
int main() {
  double buf[64];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  scale_shift(buf + 1, buf, 60);
  double s = 0.0;
  for (int i = 0; i < 64; i++) { s = s + buf[i] * i; }
  printf("buf = %.6f\\n", s);
  return 0;
}
"""

CELL_SRC = """
void pump(double* cell, double* arr, int n) {
  for (int i = 0; i < n; i++) { arr[i] = cell[0] + i; }
}
void touch(double* a, double* b) {
  double before = a[0];
  b[0] = before * 2.0;
  a[1] = a[0] - before;
}
int main() {
  double a[8]; double m[4];
  for (int i = 0; i < 8; i++) { a[i] = 1.0; }
  m[0] = 3.0; m[1] = 0.0;
  pump(a + 3, a, 8);
  touch(m, m);
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s = s + a[i] * (i + 1); }
  printf("%.2f %.1f\\n", s, m[1]);
  return 0;
}
"""


def cfg_of(src, name="t"):
    return BenchmarkConfig(name=name, sources=[SourceFile("t.c", src)])


class TestRecordFormat:
    REC = {"t": "probe", "exe": "abc", "ok": True, "n": 3}

    def test_crc_round_trip(self):
        assert decode_record(encode_record(self.REC)) == self.REC

    def test_bit_flip_detected(self):
        line = encode_record(self.REC)
        assert decode_record(line.replace('"ok":true', '"ok":false')) is None

    def test_garbage_rejected(self):
        assert decode_record("not json at all") is None
        assert decode_record(json.dumps(["a", "list"])) is None
        assert decode_record(json.dumps({"no": "crc"})) is None


class TestJournalLifecycle:
    def test_fresh_write_and_resume(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked")
        j.record_probe("h1", True, 5, "ok")
        j.record_probe("h2", False, 7, "wrong-output")
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.replayed == {"h1": (True, 5, "ok"),
                              "h2": (False, 7, "wrong-output")}
        assert r.corrupt_records == 0
        assert not r.completed and not r.header_lost

    def test_done_record(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked")
        j.record_probe("h1", True, 5, "ok")
        j.record_done([3, 1])
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.completed
        assert r.pessimistic_from_done == [1, 3]

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked")
        j.record_probe("h1", True, 5, "ok")
        j.record_probe("h2", False, 7, "trapped")
        with open(path, "rb+") as f:
            f.truncate(f.seek(0, 2) - 9)  # tear the last record
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.replayed == {"h1": (True, 5, "ok")}
        assert r.corrupt_records == 1

    def test_wrong_session_header_raises(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        SessionJournal(path, "fp-a", "chunked")
        with pytest.raises(JournalError, match="different"):
            SessionJournal(path, "fp-b", "chunked", resume=True)
        with pytest.raises(JournalError, match="different"):
            SessionJournal(path, "fp-a", "frequency", resume=True)

    def test_torn_header_is_tolerated(self, tmp_path):
        # corruption (including the header line) is never fatal: the
        # surviving records replay and the damage is counted
        path = str(tmp_path / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked")
        j.record_probe("h1", True, 5, "ok")
        with open(path, "r") as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.write(lines[0][:-10] + "\n")  # tear the header
            f.writelines(lines[1:])
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.header_lost
        assert r.corrupt_records == 1
        assert r.replayed == {"h1": (True, 5, "ok")}

    def test_append_oserror_degrades(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked")
        os.remove(path)
        os.mkdir(path)  # appending to a directory fails
        j.record_probe("h1", True, 5, "ok")
        assert j.dropped_appends == 1

    def test_resume_of_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "nope.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked", resume=True)
        assert j.replayed == {}
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.corrupt_records == 0  # the fresh header was written


class TestKillAndResume:
    """The acceptance criterion: kill a probing session mid-flight,
    resume it from the journal, and require the resumed report to be
    bit-identical to an uninterrupted run — same pessimistic set, same
    final executable, same total verdict count (run + cached)."""

    @pytest.mark.parametrize("src,kill_at", [(HAZARD_SRC, 1),
                                             (CELL_SRC, 3),
                                             # killed before and after
                                             # the first pinned query
                                             (CELL_SRC, 1),
                                             (CELL_SRC, 2),
                                             (WIDE_HAZARD_SRC, 1),
                                             (WIDE_HAZARD_SRC, 3)])
    # every registered strategy must resume bit-identically — a
    # strategy is a pure function of (seed, observed outcomes)
    @pytest.mark.parametrize("strategy", strategy_names())
    def test_resume_is_bit_identical(self, tmp_path, src, kill_at,
                                     strategy):
        cfg = cfg_of(src)
        ref = ProbingDriver(cfg, strategy=strategy).run()
        assert not ref.fully_optimistic  # the bisection must be real

        jdir = str(tmp_path / "journal")
        injector = FaultInjector([FaultSpec("session-kill", at=kill_at)])
        journal = SessionJournal.for_config(jdir, cfg, strategy)
        with pytest.raises(SessionKilled):
            ProbingDriver(cfg, strategy=strategy, journal=journal,
                          injector=injector).run()

        resumed_journal = SessionJournal.for_config(jdir, cfg, strategy,
                                                    resume=True)
        assert not resumed_journal.completed
        rep = ProbingDriver(cfg, strategy=strategy,
                            journal=resumed_journal).run()
        assert rep.pessimistic_indices == ref.pessimistic_indices
        assert rep.final_program.exe_hash == ref.final_program.exe_hash
        assert rep.fully_optimistic == ref.fully_optimistic
        # replayed verdicts shift from "run" to "cached", never vanish
        assert rep.tests_run + rep.tests_cached \
            == ref.tests_run + ref.tests_cached
        assert rep.tests_replayed == len(resumed_journal.replayed)
        # and the resumed journal now carries the terminal marker
        final = SessionJournal.for_config(jdir, cfg, strategy,
                                          resume=True)
        assert final.completed
        assert final.pessimistic_from_done == ref.pessimistic_indices
