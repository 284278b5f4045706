"""The four append-only record files — session journal, verdict cache,
service job table, streamed events — written through their public
APIs: literal bytes, damaged-line counters, fsync placement and
read-only-directory degradation.

The literal lines were recorded from the writers before they shared
one record codec; the only masked fields are the code digests an
answer record carries (and with them that record's CRC), which change
with every edit to the package."""

import builtins
import errno
import json
import os
import re

import pytest

from repro.oraql.cache import VerdictCache
from repro.oraql.errors import JournalError
from repro.oraql.journal import SessionJournal
from repro.oraql.parallel import JobSpec
from repro.service.jobs import JobTable
from repro.trace.stream import JsonlStreamingTrace, read_stream

SETUP = "5e7a95e7a95e7a95"


def write_journal(path):
    j = SessionJournal(path, "fp0123456789abcd", "chunked", setup=SETUP)
    j.record_probe("exe-a", True, 4, "ok")
    j.record_probe("exe-b", False, 6, "wrong-output", pessimistic=[5, 2])
    j.record_answers("exe-a", 3, [1])
    j.record_measure("exe-a", 1234.5, True)
    j.record_done([5, 2])
    return j


def write_cache(cache_dir, compact=True):
    c = VerdictCache(cache_dir)
    c.put("fp:h1", True)
    c.put("fp:h2", False, triage="trapped")
    c.put_answers("fp:setup", (5, frozenset({3, 1})), "exe-c")
    c.put_baseline("fp:h0")
    if compact:
        c.compact()
    return c


def write_jobs(path):
    table = JobTable(path)
    table.admit(JobSpec(id="job-1", config_json='{"name": "x"}'))
    table.admit(JobSpec(id="job-2", config_json='{"name": "y"}',
                        strategy="frequency"))
    table.finish("job-1", "done", report={"pessimistic_indices": [1]})
    table.finish("job-2", "failed", error="boom")
    return table


def write_stream(path):
    trace = JsonlStreamingTrace(path)
    trace.session("x", "chunked")
    trace.begin_compile("baseline")
    trace.begin_compile("probe", bits=[0, 1, 1])
    trace.record_done([1, 2])
    return trace


def lines_of(path):
    with open(path) as f:
        return f.read().splitlines()


def masked(line):
    """A cache line with its code digest (and so its CRC) masked."""
    if '"code":"' not in line:
        return line
    line = re.sub(r'"code":"[0-9a-f]{16}"', '"code":"<code>"', line)
    return re.sub(r'"crc":\d+', '"crc":<crc>', line)


JOURNAL_LINES = [
    '{"crc":3842175658,"fp":"fp0123456789abcd","setup":"5e7a95e7a95e7a95","strategy":"chunked","t":"header","v":1}',
    '{"crc":2694861154,"exe":"exe-a","n":4,"ok":true,"t":"probe","triage":"ok"}',
    '{"crc":4149998838,"exe":"exe-b","n":6,"ok":false,"pess":[2,5],"t":"probe","triage":"wrong-output"}',
    '{"crc":3324467442,"exe":"exe-a","n":3,"pess":[1],"t":"answers"}',
    '{"crc":179037989,"cycles":1234.5,"exe":"exe-a","ok":true,"t":"measure"}',
    '{"crc":476961503,"pessimistic":[2,5],"t":"done"}',
]

CACHE_APPENDED_LINES = [
    '{"crc":647632168,"key":"fp:h1","ok":true,"v":1}',
    '{"crc":1831390901,"key":"fp:h2","ok":false,"triage":"trapped","v":1}',
    '{"code":"<code>","crc":<crc>,"exe":"exe-c","key":"fp:setup","n":5,"pess":[1,3],"t":"answers","v":1}',
    '{"crc":3518992481,"key":"fp:h0","t":"baseline","v":1}',
]

CACHE_COMPACTED_LINES = [
    '{"crc":647632168,"key":"fp:h1","ok":true,"v":1}',
    '{"crc":1831390901,"key":"fp:h2","ok":false,"triage":"trapped","v":1}',
    '{"code":"<code>","crc":<crc>,"exe":"exe-c","key":"fp:setup","n":5,"pess":[1,3],"t":"answers","v":1}',
    '{"crc":3518992481,"key":"fp:h0","t":"baseline","v":1}',
]

JOB_LINES = [
    '{"crc":2356194725,"spec":{"config_json":"{\\"name\\": \\"x\\"}","fault_plan":null,"id":"job-1","kind":"probe","max_measurements":2000,"max_tests":10000,"policy":{"backoff":0.05,"fuel":null,"nondet_probe":"first","retries":2,"wall_clock":null},"recover_percent":95.0,"significant_percent":2.0,"strategy":"chunked","stream":false},"t":"job"}',
    '{"crc":3886129135,"spec":{"config_json":"{\\"name\\": \\"y\\"}","fault_plan":null,"id":"job-2","kind":"probe","max_measurements":2000,"max_tests":10000,"policy":{"backoff":0.05,"fuel":null,"nondet_probe":"first","retries":2,"wall_clock":null},"recover_percent":95.0,"significant_percent":2.0,"strategy":"frequency","stream":false},"t":"job"}',
    '{"crc":3060568361,"id":"job-1","report":{"pessimistic_indices":[1]},"status":"done","t":"jobdone"}',
    '{"crc":3861800565,"error":"boom","id":"job-2","status":"failed","t":"jobdone"}',
]

STREAM_LINES = [
    '{"config":"x","strategy":"chunked","t":"meta","version":1}',
    '{"label":"baseline","n":1,"t":"compile"}',
    '{"bits":"011","label":"probe","n":2,"t":"compile"}',
    '{"pessimistic":[1,2],"t":"done"}',
]


class TestLiteralLines:
    def test_journal(self, tmp_path):
        path = str(tmp_path / "s.journal.jsonl")
        write_journal(path)
        assert lines_of(path) == JOURNAL_LINES

    def test_cache_appends_and_compaction(self, tmp_path):
        c = write_cache(str(tmp_path / "cache"), compact=False)
        assert [masked(l) for l in lines_of(c.path)] == CACHE_APPENDED_LINES
        c.compact()
        assert [masked(l) for l in lines_of(c.path)] == \
            CACHE_COMPACTED_LINES

    def test_job_table(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        write_jobs(path)
        assert lines_of(path) == JOB_LINES

    def test_stream(self, tmp_path):
        path = str(tmp_path / "events" / "job-1.jsonl")
        write_stream(path)
        assert lines_of(path) == STREAM_LINES
        assert [rec["t"] for rec in read_stream(path)] == \
            ["meta", "compile", "compile", "done"]


def damage(line, how):
    """One damaged variant of a valid CRC-carrying line."""
    rec = json.loads(line)
    if how == "torn":
        return line[:len(line) // 2]
    if how == "non-dict":
        return json.dumps([rec])
    if how == "foreign-v":
        rec["v"] = rec.get("v", 0) + 1
        return json.dumps(rec)
    if how == "crc-bad":
        return json.dumps({**rec, "crc": rec["crc"] ^ 1})
    assert how == "crc-less"
    return json.dumps({k: v for k, v in rec.items() if k != "crc"})


DAMAGES = ["torn", "non-dict", "foreign-v", "crc-bad", "crc-less"]


def replace_line(path, at, text):
    lines = lines_of(path)
    lines[at] = text
    with open(path, "w") as f:
        f.write("".join(l + "\n" for l in lines))


class TestDamagedLines:
    #: cache: (record kind, damage) -> corrupt_records after reload
    CACHE = {
        ("verdict", "torn"): 1, ("verdict", "non-dict"): 1,
        ("verdict", "foreign-v"): 0, ("verdict", "crc-bad"): 1,
        ("verdict", "crc-less"): 0,
        ("answers", "torn"): 1, ("answers", "non-dict"): 1,
        ("answers", "foreign-v"): 0, ("answers", "crc-bad"): 1,
        ("answers", "crc-less"): 1,
        ("baseline", "torn"): 1, ("baseline", "non-dict"): 1,
        ("baseline", "foreign-v"): 0, ("baseline", "crc-bad"): 1,
        ("baseline", "crc-less"): 1,
    }

    @pytest.mark.parametrize("kind,how", sorted(CACHE))
    def test_cache(self, tmp_path, kind, how):
        cache_dir = str(tmp_path / "cache")
        c = write_cache(cache_dir, compact=False)
        at = {"verdict": 1, "answers": 2, "baseline": 3}[kind]
        replace_line(c.path, at, damage(lines_of(c.path)[at], how))
        r = VerdictCache(cache_dir)
        assert r.corrupt_records == self.CACHE[kind, how]
        assert r.stats()["records"] == (
            1 if kind == "verdict" and how != "crc-less" else 2)
        # a CRC-less verdict is a legacy record, read as written
        if (kind, how) == ("verdict", "crc-less"):
            assert r.get_record("fp:h2") == (False, "trapped")

    @pytest.mark.parametrize("how", DAMAGES)
    def test_journal(self, tmp_path, how):
        path = str(tmp_path / "s.journal.jsonl")
        write_journal(path)
        replace_line(path, 2, damage(lines_of(path)[2], how))
        r = SessionJournal(path, "fp0123456789abcd", "chunked",
                           resume=True)
        # the journal carries no schema field outside its header, so a
        # foreign "v" only breaks the CRC
        assert r.corrupt_records == 1
        assert sorted(r.replayed) == ["exe-a"]
        assert r.completed and not r.header_lost

    @pytest.mark.parametrize("how", DAMAGES)
    def test_journal_header(self, tmp_path, how):
        path = str(tmp_path / "s.journal.jsonl")
        write_journal(path)
        replace_line(path, 0, damage(lines_of(path)[0], how))
        r = SessionJournal(path, "fp0123456789abcd", "chunked",
                           resume=True)
        assert r.header_lost and r.setup is None
        assert r.corrupt_records == 1
        assert sorted(r.replayed) == ["exe-a", "exe-b"]

    @pytest.mark.parametrize("how", DAMAGES)
    def test_job_table(self, tmp_path, how):
        path = str(tmp_path / "jobs.jsonl")
        write_jobs(path)
        replace_line(path, 2, damage(lines_of(path)[2], how))
        r = JobTable(path, resume=True)
        assert r.corrupt_records == 1
        assert r.get("job-1").status == "pending"
        assert r.get("job-2").status == "failed"
        assert [job.spec.id for job in r.unfinished()] == ["job-1"]

    @pytest.mark.parametrize("how", ["torn", "non-dict"])
    def test_stream(self, tmp_path, how):
        path = str(tmp_path / "events.jsonl")
        write_stream(path)
        replace_line(path, 1, "[1]" if how == "non-dict"
                     else lines_of(path)[1][:10])
        assert [rec["t"] for rec in read_stream(path)] == \
            ["meta", "compile", "done"]


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestFsync:
    def test_journal_syncs_header_and_every_append(self, tmp_path, fsyncs):
        path = str(tmp_path / "s.journal.jsonl")
        SessionJournal(path, "fp", "chunked", setup=SETUP)
        assert len(fsyncs) == 1
        del fsyncs[:]
        write_journal(path)
        assert len(fsyncs) == 6  # header + five appends
        del fsyncs[:]
        SessionJournal(path, "fp0123456789abcd", "chunked", resume=True)
        assert fsyncs == []

    def test_cache_syncs_only_compaction(self, tmp_path, fsyncs):
        c = write_cache(str(tmp_path / "cache"), compact=False)
        assert fsyncs == []
        c.compact()
        assert len(fsyncs) == 1

    def test_job_table_never_syncs(self, tmp_path, fsyncs):
        write_jobs(str(tmp_path / "jobs.jsonl"))
        JobTable(str(tmp_path / "jobs.jsonl"), resume=True)
        assert fsyncs == []

    def test_stream_never_syncs(self, tmp_path, fsyncs):
        write_stream(str(tmp_path / "events.jsonl"))
        assert fsyncs == []


@pytest.fixture
def read_only(tmp_path, monkeypatch):
    """A directory nothing can be written into.  Root ignores mode
    bits, so opening a file there for writing also fails by patch."""
    root = tmp_path / "ro"
    root.mkdir()

    def make_read_only():
        os.chmod(root, 0o555)
        real_open = builtins.open

        def guarded(file, mode="r", *args, **kwargs):
            if isinstance(file, str) and \
                    os.path.dirname(os.path.abspath(file)) == str(root) \
                    and any(c in mode for c in "wax+"):
                raise PermissionError(errno.EACCES, "Permission denied",
                                      file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded)

    yield root, make_read_only
    os.chmod(root, 0o755)


class TestReadOnlyDirectory:
    def test_journal(self, read_only):
        root, make_read_only = read_only
        path = str(root / "s.journal.jsonl")
        j = SessionJournal(path, "fp", "chunked", setup=SETUP)
        make_read_only()
        j.record_probe("exe-a", True, 4, "ok")
        j.record_answers("exe-a", 3, [1])
        j.record_measure("exe-a", 1.0, True)
        j.record_done([])
        assert j.dropped_appends == 4
        # the header of a fresh journal is not optional
        with pytest.raises(OSError):
            SessionJournal(str(root / "t.journal.jsonl"), "fp", "chunked",
                           setup=SETUP)
        r = SessionJournal(path, "fp", "chunked", resume=True)
        assert r.corrupt_records == 0 and not r.header_lost

    def test_journal_read_error_is_a_journal_error(self, tmp_path):
        path = tmp_path / "s.journal.jsonl"
        path.mkdir()
        with pytest.raises(JournalError, match="cannot read journal"):
            SessionJournal(str(path), "fp", "chunked", resume=True)

    def test_cache(self, read_only):
        root, make_read_only = read_only
        c = write_cache(str(root), compact=False)
        make_read_only()
        r = VerdictCache(str(root))
        assert r.load_errors == 0 and len(r) == 2
        r.put("fp:h3", True)
        r.put_answers("fp:setup", (2, frozenset()), "exe-d")
        r.put_baseline("fp:h9")
        assert r.dropped_writes == 3
        # served from memory all the same
        assert r.get_record("fp:h3") == (True, None)
        assert r.has_baseline("fp:h9")
        assert lines_of(c.path) == lines_of(r.path)

    def test_failed_compaction_is_counted_and_cleaned_up(self, tmp_path):
        c = write_cache(str(tmp_path / "cache"), compact=False)
        os.remove(c.path)
        os.mkdir(c.path)  # the rename over it fails
        assert c.compact() == (0, 4)
        # the refresh and the line count could not read it either
        assert c.dropped_writes == 1 and c.load_errors == 2
        assert os.listdir(str(tmp_path / "cache")) == ["verdicts.jsonl"]

    def test_job_table(self, read_only):
        root, make_read_only = read_only
        make_read_only()
        table = JobTable(str(root / "jobs.jsonl"))
        assert table.dropped_appends == 1  # the truncate
        table.admit(JobSpec(id="job-1", config_json="{}"))
        table.finish("job-1", "done", report={})
        assert table.dropped_appends == 3
        assert table.get("job-1").status == "done"

    def test_stream(self, read_only):
        root, make_read_only = read_only
        make_read_only()
        trace = write_stream(str(root / "events.jsonl"))
        assert trace.dropped_writes == 5  # the truncate + four records
        assert [rec["t"] for rec in trace.records] == \
            ["meta", "compile", "compile", "done"]

