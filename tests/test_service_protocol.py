"""Unit tests for the service's wire protocol, job specs, job table,
and report serialization — the fast, server-free layer."""

import threading

import pytest

from repro.oraql.cache import VerdictCache
from repro.oraql.driver import ProbingDriver
from repro.oraql.executor import ExecutorPolicy
from repro.oraql.parallel import JobSpec
from repro.records import encode_record
from repro.service import protocol as wire
from repro.service.jobs import JobTable, report_from_dict, report_to_dict
from repro.trace.stream import EventTail, JsonlStreamingTrace, read_stream
from repro.workloads.base import get_config


class TestWireProtocol:
    def test_roundtrip(self):
        msg = wire.hello_msg()
        assert wire.decode(wire.encode(msg)) == msg

    def test_encode_is_one_line(self):
        line = wire.encode(wire.result_msg("job-1", "done",
                                           report={"a": "b\nc"}))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1  # embedded newlines stay escaped

    def test_decode_garbage_raises(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode(b"not json at all\n")

    def test_decode_non_object_raises(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode(b"[1, 2, 3]\n")

    def test_decode_missing_type_raises(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode(b'{"tenant": "x"}\n')

    def test_error_codes_are_closed(self):
        with pytest.raises(AssertionError):
            wire.error_msg("made-up-code", "nope")

    #: wire lines recorded before encode used the record files' codec:
    #: sorted keys, no spaces, non-ASCII text as \u escapes
    PINNED = [
        ({"t": "hello", "v": 1}, b'{"t":"hello","v":1}\n'),
        ({"t": "submit", "id": "job-1", "workload": "TestSNAP-openmp",
          "strategy": "chunked", "max_tests": 40, "stream": True},
         b'{"id":"job-1","max_tests":40,"strategy":"chunked",'
         b'"stream":true,"t":"submit","workload":"TestSNAP-openmp"}\n'),
        ({"t": "event", "id": "j",
          "ev": {"t": "compile", "label": "probe", "bits": [0, 1, 1]}},
         b'{"ev":{"bits":[0,1,1],"label":"probe","t":"compile"},'
         b'"id":"j","t":"event"}\n'),
        ({"t": "error", "code": "bad-request",
          "message": "unknown workload 'Gr\u00fc\u00dfe\u2014\u03c0'"},
         b'{"code":"bad-request","message":"unknown workload '
         b"'Gr\\u00fc\\u00dfe\\u2014\\u03c0'\",\"t\":\"error\"}\n"),
        ({"t": "result", "id": "\u00fc",
          "report": {"z": None, "a": 1.5, "m": {"b": [], "a": {}}}},
         b'{"id":"\\u00fc","report":{"a":1.5,"m":{"a":{},"b":[]},'
         b'"z":null},"t":"result"}\n'),
    ]

    @pytest.mark.parametrize("msg,line", PINNED)
    def test_wire_bytes_are_pinned(self, msg, line):
        assert wire.encode(msg) == line
        assert wire.decode(line) == msg


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(id="job-1", config_json='{"name": "x"}',
                       strategy="frequency", stream=True,
                       fault_plan=[{"kind": "worker-kill", "at": 0}],
                       policy=ExecutorPolicy(fuel=500, retries=0))
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.policy == ExecutorPolicy(fuel=500, retries=0)

    def test_legacy_budget_fields_ignored(self):
        # specs written before the policy field carried a tenant and
        # its three clamped budgets; they replay under the default policy
        spec = JobSpec.from_dict({"id": "job-1", "config_json": "{}",
                                  "tenant": "acme", "fuel": None,
                                  "wall_clock": None, "retries": 2})
        assert spec.policy == ExecutorPolicy()
        assert not hasattr(spec, "tenant")

    @pytest.mark.parametrize("good", ["job-1", "my-custom-id", "r0-c1-2",
                                      "a", "A.b_c-9", "x" * 128])
    def test_plain_ids_accepted(self, good):
        assert JobSpec(id=good, config_json="{}").id == good

    @pytest.mark.parametrize("bad", [
        5,                 # not a string: breaks next_job_number
        {"a": 1},          # unhashable: breaks the job table
        "../../escape",    # leaves the state dir's journal directory
        "", "-lead", ".hidden", "sp ace", "a/b", "x" * 129,
    ])
    def test_bad_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="bad job id"):
            JobSpec(id=bad, config_json="{}")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(id="j", config_json="{}", kind="mystery")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="chunked"):
            JobSpec(id="j", config_json="{}", strategy="bogus")

    def test_every_registered_strategy_accepted(self):
        from repro.oraql.strategies import strategy_names
        for name in strategy_names():
            assert JobSpec(id="j", config_json="{}",
                           strategy=name).strategy == name

    def test_from_dict_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({"id": "j", "config_json": "{}",
                                  "from_the_future": 1})
        assert spec.id == "j"

    def test_config_name(self):
        assert JobSpec(id="j",
                       config_json='{"name": "lulesh"}').config_name \
            == "lulesh"
        assert JobSpec(id="j", config_json="garbage").config_name == "?"


class TestJobTable:
    def test_admit_finish_resume(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        table = JobTable(path)
        table.admit(JobSpec(id="job-1", config_json="{}"))
        table.admit(JobSpec(id="job-2", config_json="{}"))
        table.finish("job-1", "done", report={"pessimistic_indices": []})

        resumed = JobTable(path, resume=True)
        assert resumed.get("job-1").status == "done"
        assert resumed.get("job-1").report == {"pessimistic_indices": []}
        assert [j.spec.id for j in resumed.unfinished()] == ["job-2"]
        assert resumed.replayed_done == ["job-1"]

    def test_duplicate_admit_raises(self, tmp_path):
        table = JobTable(str(tmp_path / "jobs.jsonl"))
        table.admit(JobSpec(id="job-1", config_json="{}"))
        with pytest.raises(ValueError):
            table.admit(JobSpec(id="job-1", config_json="{}"))

    def test_torn_tail_skipped(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        table = JobTable(path)
        table.admit(JobSpec(id="job-1", config_json="{}"))
        table.admit(JobSpec(id="job-2", config_json="{}"))
        with open(path, "r+b") as f:  # tear the final record mid-line
            f.truncate(f.seek(0, 2) - 5)
        resumed = JobTable(path, resume=True)
        assert resumed.get("job-1") is not None
        assert resumed.get("job-2") is None
        assert resumed.corrupt_records == 1

    def test_next_job_number_survives_resume(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        table = JobTable(path)
        table.admit(JobSpec(id="job-7", config_json="{}"))
        table.admit(JobSpec(id="my-custom-id", config_json="{}"))
        assert JobTable(path, resume=True).next_job_number() == 8

    @pytest.mark.parametrize("bad_id", [5, {"a": 1}, "../../escape"])
    def test_replay_counts_bad_ids_as_corrupt(self, tmp_path, bad_id):
        path = tmp_path / "jobs.jsonl"
        path.write_text("".join(encode_record(rec) + "\n" for rec in [
            {"t": "job", "spec": {"id": "job-3", "config_json": "{}"}},
            {"t": "job", "spec": {"id": bad_id, "config_json": "{}"}},
            {"t": "jobdone", "id": bad_id, "status": "done"},
        ]))
        resumed = JobTable(str(path), resume=True)
        # the spec fails validation; a terminal record is corrupt when
        # its id is not a string, and names no job when it is one
        assert resumed.corrupt_records == (
            1 if isinstance(bad_id, str) else 2)
        assert list(resumed.jobs) == ["job-3"]
        assert resumed.next_job_number() == 4

    def test_fresh_table_truncates(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        JobTable(path).admit(JobSpec(id="job-1", config_json="{}"))
        assert len(JobTable(path, resume=False)) == 0


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        return ProbingDriver(get_config("MiniGMG-sse")).run() \
            .detach_for_transport()

    def test_roundtrip_preserves_identity_fields(self, report):
        again = report_from_dict(report_to_dict(report))
        assert again.pessimistic_indices == report.pessimistic_indices
        assert again.final_exe_hash == report.final_exe_hash
        assert again.config_name == report.config_name
        assert list(again.final_sequence.bits) == \
            list(report.final_sequence.bits)
        assert again.opt_unique == report.opt_unique
        assert again.tests_run == report.tests_run

    def test_dict_is_json_clean(self, report):
        import json
        json.dumps(report_to_dict(report))  # no live objects leaked

    def test_final_exe_hash_populated(self, report):
        assert isinstance(report.final_exe_hash, str)
        assert len(report.final_exe_hash) > 0

    def test_unknown_keys_ignored(self, report):
        d = report_to_dict(report)
        d["field_from_v2"] = {"x": 1}
        assert report_from_dict(d).pessimistic_indices == \
            report.pessimistic_indices


class TestCompactionUnderConcurrentReader:
    """Satellite: the documented compact()-vs-reader guarantee.

    ``compact()`` replaces the file atomically (write-temp + rename), so
    a reader holding the same path always observes either the complete
    old file or the complete new one — a key present before compaction
    is readable throughout.  This interleaves a polling reader with
    repeated compactions and asserts no lookup ever misses or tears.
    """

    def test_lookups_never_fail_during_compaction(self, tmp_path):
        cache = VerdictCache(str(tmp_path))
        keys = [f"fp:{i:04x}" for i in range(50)]
        for i, key in enumerate(keys):
            cache.put(key, i % 2 == 0)
            if i % 2 == 0:  # supersede half so compaction has work
                cache.put(key, True)

        misses, errors = [], []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    fresh = VerdictCache(str(tmp_path))
                    for i, key in enumerate(keys):
                        record = fresh.get_record(key)
                        got = record[0] if record else None
                        want = True if i % 2 == 0 else False
                        if got != want:
                            misses.append((key, got))
                    fresh.refresh()
            except Exception as e:  # pragma: no cover - the regression
                errors.append(e)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for _ in range(25):
                cache.compact()
        finally:
            stop.set()
            t.join()
        assert errors == []
        assert misses == []


class TestEventStreaming:
    def test_stream_and_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        trace = JsonlStreamingTrace(path)
        tail = EventTail(path)
        trace.session("cfg", "chunked")
        assert [r["t"] for r in tail.poll()] == ["meta"]
        trace.begin_compile("baseline")
        trace.record_done([1, 2])
        assert [r["t"] for r in tail.poll()] == ["compile", "done"]
        assert tail.poll() == []  # nothing new

    def test_coarse_by_default(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        trace = JsonlStreamingTrace(path)
        trace.session("cfg", "chunked")
        trace._emit({"t": "q", "i": 0})  # a per-query record
        trace.record_done([])
        kinds = [r["t"] for r in read_stream(path)]
        assert kinds == ["meta", "done"]  # per-query spam filtered out

    def test_torn_line_buffered_until_complete(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as f:
            f.write('{"t": "meta"}\n{"t": "comp')
        tail = EventTail(path)
        assert [r["t"] for r in tail.poll()] == ["meta"]
        with open(path, "a") as f:
            f.write('ile"}\n')
        assert [r["t"] for r in tail.poll()] == ["compile"]

    def test_shrunk_file_rewinds(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        trace = JsonlStreamingTrace(path)
        trace.session("cfg", "chunked")
        trace.begin_compile("x")
        tail = EventTail(path)
        assert len(tail.poll()) == 2
        # a requeued attempt restarts the stream from scratch
        trace2 = JsonlStreamingTrace(path)
        trace2.session("cfg", "chunked")
        assert [r["t"] for r in tail.poll()] == ["meta"]
