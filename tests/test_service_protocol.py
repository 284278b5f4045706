"""Unit tests for the service's wire protocol, quotas, job table, and
report serialization — the fast, server-free layer."""

import threading

import pytest

from repro.oraql.cache import VerdictCache, config_fingerprint
from repro.oraql.driver import ProbingDriver
from repro.service import protocol as wire
from repro.service.jobs import (JobSpec, JobTable, report_from_dict,
                                report_to_dict)
from repro.service.quota import (QuotaExceeded, QuotaRegistry, TenantQuota,
                                 parse_tenant_spec)
from repro.trace.stream import EventTail, JsonlStreamingTrace, read_stream
from repro.workloads.base import get_config


class TestWireProtocol:
    def test_roundtrip(self):
        msg = wire.hello_msg("team-a")
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


class TestTenantQuota:
    def test_unrestricted_default(self):
        q = TenantQuota()
        q.admit(10_000)  # no limit, no raise
        assert q.clamp_fuel(None) is None
        assert q.clamp_max_tests(999) == 999

    def test_admission_refusal(self):
        q = TenantQuota("t", max_active=2)
        q.admit(1)
        with pytest.raises(QuotaExceeded):
            q.admit(2)

    def test_clamps_cap_but_never_raise(self):
        q = TenantQuota("t", fuel=100, wall_clock=1.5, max_tests=10)
        assert q.clamp_fuel(None) == 100
        assert q.clamp_fuel(50) == 50
        assert q.clamp_fuel(500) == 100
        assert q.clamp_wall_clock(9.0) == 1.5
        assert q.clamp_max_tests(5) == 5
        assert q.clamp_max_tests(50) == 10

    def test_parse_spec(self):
        q = parse_tenant_spec("team-a:max_active=2,fuel=1000,wall_clock=2.5")
        assert (q.name, q.max_active, q.fuel, q.wall_clock) == \
            ("team-a", 2, 1000, 2.5)

    def test_parse_bare_name(self):
        q = parse_tenant_spec("solo")
        assert q.name == "solo" and q.max_active is None

    @pytest.mark.parametrize("bad", [
        ":max_active=1",          # empty name
        "t:bogus_field=1",        # unknown field
        "t:max_active",           # no '='
        "t:max_active=lots",      # unparseable value
    ])
    def test_parse_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_tenant_spec(bad)

    def test_registry_default_fallback(self):
        reg = QuotaRegistry.from_specs(["team-a:max_active=1"])
        assert reg.get("team-a").max_active == 1
        assert reg.get("stranger").max_active is None  # unrestricted

    def test_registry_locked_down_default(self):
        reg = QuotaRegistry(default_quota=TenantQuota("default",
                                                      max_active=0))
        with pytest.raises(QuotaExceeded):
            reg.get("anonymous").admit(0)


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(id="job-1", config_json='{"name": "x"}',
                       tenant="t", strategy="frequency", stream=True,
                       fault_plan=[{"kind": "worker-kill", "at": 0}])
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

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


class TestCacheSharding:
    def test_shard_for_layout(self, tmp_path):
        cfg = get_config("MiniGMG-sse")
        fp = config_fingerprint(cfg)
        shard = VerdictCache.shard_for(str(tmp_path), fp)
        shard.put(VerdictCache.key(fp, "deadbeef"), True)
        assert fp[:2] in shard.path and fp in shard.path

    def test_shards_are_disjoint(self, tmp_path):
        a = VerdictCache.shard_for(str(tmp_path), "aa11")
        b = VerdictCache.shard_for(str(tmp_path), "bb22")
        a.put("aa11:x", True)
        assert b.get_record("aa11:x") is None
        assert VerdictCache.shard_for(str(tmp_path), "aa11") \
            .get_record("aa11:x")[0] is True


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
