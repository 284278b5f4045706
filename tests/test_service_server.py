"""In-process server tests: concurrent sessions, streaming, resumed
state, and protocol-level error handling.

The load-bearing assertion everywhere: a job run by the service — no
matter how concurrent the fleet around it — reports the same
pessimistic set and final executable hash as a sequential
:class:`~repro.oraql.driver.ProbingDriver` run of the same workload.
"""

import asyncio
import json
import os
import shutil

import pytest

from repro.oraql.cache import CACHE_FILENAME
from repro.oraql.config import BenchmarkConfig
from repro.oraql.driver import ProbingDriver
from repro.records import encode_record
from repro.service import ProbingService, ServiceClient, ServiceError
from repro.service.jobs import JobTable
from repro.workloads.base import get_config

# cheap rows (sub-second sequential probes) keep these tier-1
FAST_WORKLOADS = ["MiniGMG-sse", "MiniGMG-ompif", "MiniGMG-omptask",
                  "GridMini-offload"]

_SEQUENTIAL = {}


def sequential_reference(name):
    """The ground truth, computed once per test process."""
    if name not in _SEQUENTIAL:
        _SEQUENTIAL[name] = ProbingDriver(get_config(name)).run()
    return _SEQUENTIAL[name]


def assert_matches_sequential(report_dict, name):
    ref = sequential_reference(name)
    assert report_dict["pessimistic_indices"] == ref.pessimistic_indices
    assert report_dict["final_exe_hash"] == ref.final_exe_hash


@pytest.fixture
def service(tmp_path):
    """A started unix-socket service; the test gets (service, socket)."""
    sock = str(tmp_path / "oraql.sock")

    async def start(**kwargs):
        svc = ProbingService(str(tmp_path / "state"),
                             socket_path=sock, **kwargs)
        await svc.start()
        return svc

    return start, sock


def run(coro):
    return asyncio.run(coro)


class TestConcurrentSessions:
    def test_four_sessions_bit_identical(self, service):
        start, sock = service

        async def one_session(name):
            async with ServiceClient(socket_path=sock) as c:
                job_id = await c.submit(workload=name)
                return name, await c.wait(job_id)

        async def main():
            svc = await start(jobs=2)
            try:
                results = await asyncio.gather(
                    *(one_session(n) for n in FAST_WORKLOADS))
            finally:
                await svc.close()
            return results

        for name, result in run(main()):
            assert result["status"] == "done"
            assert_matches_sequential(result["report"], name)

    def test_same_workload_from_two_connections(self, service):
        # two connections race the same config: the verdict cache is
        # shared, the answers must not be
        start, sock = service

        async def session():
            async with ServiceClient(socket_path=sock) as c:
                job_id = await c.submit(workload="MiniGMG-sse")
                return await c.wait(job_id)

        async def main():
            svc = await start(jobs=2)
            try:
                return await asyncio.gather(session(), session())
            finally:
                await svc.close()

        for result in run(main()):
            assert_matches_sequential(result["report"], "MiniGMG-sse")

    def test_one_connection_many_jobs(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=2)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    ids = [await c.submit(workload=n)
                           for n in FAST_WORKLOADS[:2]]
                    return [await c.wait(i) for i in ids]
            finally:
                await svc.close()

        results = run(main())
        assert_matches_sequential(results[0]["report"], FAST_WORKLOADS[0])
        assert_matches_sequential(results[1]["report"], FAST_WORKLOADS[1])


class TestStreaming:
    def test_events_use_trace_schema(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    msgs = []
                    async for m in c.submit_and_stream(
                            workload="MiniGMG-sse"):
                        msgs.append(m)
                    return msgs
            finally:
                await svc.close()

        msgs = run(main())
        events = [m["ev"] for m in msgs if m["t"] == "event"]
        kinds = [e["t"] for e in events]
        assert kinds[0] == "meta"          # session header first
        assert "compile" in kinds          # per-compile progress
        assert kinds[-1] == "done"         # terminal trace record
        assert msgs[-1]["t"] == "result"   # then the report
        assert_matches_sequential(msgs[-1]["report"], "MiniGMG-sse")

    def test_client_drop_does_not_kill_job(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(json.dumps(
                    {"t": "submit", "workload": "MiniGMG-sse",
                     "stream": True}).encode() + b"\n")
                await writer.drain()
                accepted = json.loads(await reader.readline())
                assert accepted["t"] == "accepted"
                writer.close()  # drop mid-stream, no goodbye
                # the job must still finish, observable by a new client
                async with ServiceClient(socket_path=sock) as c:
                    return accepted["id"], await c.wait(accepted["id"])
            finally:
                await svc.close()

        job_id, result = run(main())
        assert result["status"] == "done"
        assert_matches_sequential(result["report"], "MiniGMG-sse")


class TestProtocolErrors:
    def test_unknown_workload_is_structured(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="NoSuchBench")
                    assert err.value.code == "unknown-workload"
                    assert "MiniGMG-sse" in err.value.detail  # names rows
                    # the connection survives the refusal
                    job_id = await c.submit(workload="MiniGMG-sse")
                    return await c.wait(job_id)
            finally:
                await svc.close()

        assert run(main())["status"] == "done"

    def test_garbage_line_gets_error_not_disconnect(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["t"] == "error"
                assert reply["code"] == "bad-request"
                # still usable afterwards
                writer.write(json.dumps({"t": "jobs"}).encode() + b"\n")
                await writer.drain()
                reply2 = json.loads(await reader.readline())
                writer.close()
                return reply2
            finally:
                await svc.close()

        assert run(main())["t"] == "ok"

    def test_unknown_submit_field_rejected(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse",
                                       workolad_typo=1)
                    return err.value
            finally:
                await svc.close()

        err = run(main())
        assert err.code == "bad-request"
        assert "workolad_typo" in err.detail

    def test_retired_incremental_field_rejected(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse",
                                       incremental="on")
                    # the connection survives the refusal
                    job_id = await c.submit(workload="MiniGMG-sse")
                    return err.value, await c.wait(job_id)
            finally:
                await svc.close()

        err, result = run(main())
        assert err.code == "bad-request"
        assert "incremental" in err.detail
        assert result["status"] == "done"
        assert_matches_sequential(result["report"], "MiniGMG-sse")

    def test_tenant_submit_field_rejected(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse",
                                       tenant="acme")
                    return err.value
            finally:
                await svc.close()

        err = run(main())
        assert err.code == "bad-request"
        assert "tenant" in err.detail

    def test_hello_with_tenant_still_welcomed(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(json.dumps({"t": "hello", "v": 1,
                                         "tenant": "acme"}).encode()
                             + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                return reply
            finally:
                await svc.close()

        assert run(main())["t"] == "welcome"

    @pytest.mark.parametrize("bad_id", [5, {"a": 1}, "../../escape"])
    def test_bad_job_id_refused(self, service, tmp_path, bad_id):
        # each once broke the server: an int id its --resume, an
        # unhashable one the job table, a path one the state dir
        start, sock = service

        async def main(resume):
            svc = await start(jobs=1, resume=resume)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    if resume:
                        return await c.wait("good")
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse", id=bad_id)
                    # the connection survives the refusal
                    await c.wait(await c.submit(workload="MiniGMG-sse",
                                                id="good"))
                    return err.value
            finally:
                await svc.close()

        err = run(main(resume=False))
        assert err.code == "bad-request"
        assert "bad job id" in err.detail
        assert sorted(os.listdir(tmp_path)) == ["oraql.sock", "state"]
        result = run(main(resume=True))
        assert_matches_sequential(result["report"], "MiniGMG-sse")

    def test_duplicate_job_id(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    await c.submit(workload="MiniGMG-sse", id="mine")
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse", id="mine")
                    return err.value
            finally:
                await svc.close()

        assert run(main()).code == "duplicate-job"

    def test_unknown_job_queries(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    for op in (c.status, c.wait, c.cancel):
                        with pytest.raises(ServiceError) as err:
                            await op("job-999")
                        assert err.value.code == "unknown-job"
            finally:
                await svc.close()

        run(main())

    def test_inline_config_submit(self, service):
        start, sock = service
        cfg = json.loads(get_config("MiniGMG-sse").to_json())

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(config=cfg)
                    return await c.wait(job_id)
            finally:
                await svc.close()

        result = run(main())
        assert_matches_sequential(result["report"], "MiniGMG-sse")

    def test_shutdown_message(self, service):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            serve = asyncio.create_task(svc.serve_until_shutdown())
            async with ServiceClient(socket_path=sock) as c:
                reply = await c.shutdown()
            await asyncio.wait_for(serve, timeout=10)
            return reply

        assert run(main())["shutdown"] is True


class TestServerState:
    def test_state_layout(self, service, tmp_path):
        start, sock = service

        async def main():
            svc = await start(jobs=1)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(workload="MiniGMG-sse")
                    await c.wait(job_id)
            finally:
                await svc.close()

        run(main())
        state = tmp_path / "state"
        assert (state / "jobs.jsonl").exists()
        # one verdict-cache file, the layout --cache-dir uses
        assert [p.name for p in (state / "cache").iterdir()] == \
            [CACHE_FILENAME]
        assert (state / "journals").is_dir()
        assert any((state / "journals").iterdir())


class TestLegacyJobTable:
    def test_resume_replays_spec_with_retired_field(self, service, tmp_path):
        """A job admitted by an older server, whose spec still carries
        the retired ``incremental`` field, resumes under ``--resume``."""
        start, sock = service
        state = tmp_path / "state"
        state.mkdir()
        spec = {"id": "job-1",
                "config_json": get_config("MiniGMG-sse").to_json(),
                "kind": "probe", "strategy": "chunked",
                "max_tests": 10_000, "incremental": "on", "stream": False,
                "fault_plan": None}
        (state / "jobs.jsonl").write_text(
            encode_record({"t": "job", "spec": spec}) + "\n")

        async def main():
            svc = await start(jobs=1, resume=True)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    return await c.wait("job-1")
            finally:
                await svc.close()

        result = run(main())
        assert result["status"] == "done"
        assert_matches_sequential(result["report"], "MiniGMG-sse")

    def test_resume_fails_spec_naming_retired_strategy(self, service,
                                                       tmp_path):
        """A job admitted by an older server under a strategy this one
        no longer registers replays and ends failed, naming the
        strategy; a new submission naming it is still refused."""
        start, sock = service
        state = tmp_path / "state"
        state.mkdir()
        spec = {"id": "job-1",
                "config_json": get_config("MiniGMG-sse").to_json(),
                "kind": "probe", "strategy": "retired"}
        (state / "jobs.jsonl").write_text(
            encode_record({"t": "job", "spec": spec}) + "\n")

        async def main():
            svc = await start(jobs=1, resume=True)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse",
                                       strategy="retired")
                    return (await c.wait("job-1"), err.value,
                            svc.scheduler.table.corrupt_records)
            finally:
                await svc.close()

        result, err, corrupt = run(main())
        assert result["status"] == "failed"
        assert "unknown strategy 'retired'" in result["error"]
        assert corrupt == 0
        assert err.code == "bad-request"
        assert "retired" in err.detail


#: a state dir written by the server before tenants, quotas and the
#: per-fingerprint cache shards were removed: ``job-1`` (MiniGMG-sse)
#: finished; ``job-2`` (TestSNAP-openmp) was killed after its journal
#: took one probe; both specs carry ``tenant``, ``fuel``, ``wall_clock``
#: and ``retries``, and the verdicts lie in ``cache/<fp[:2]>/<fp>.jsonl``.
#: The journaled probe is keyed by its executable hash: a compiler
#: change that changes that hash leaves it unreplayed (``tests_replayed``
#: 0); such a change also shows in ``tests/goldens/exe_hashes.json``.
LEGACY_STATE = os.path.join(os.path.dirname(__file__), "fixtures",
                            "legacy_service_state")


class TestLegacyStateDir:
    def test_resume_state_dir_with_tenants_and_shards(self, service,
                                                      tmp_path):
        start, sock = service
        state = tmp_path / "state"
        shutil.copytree(LEGACY_STATE, state)
        legacy = JobTable(str(state / "jobs.jsonl"), resume=True)
        recorded = legacy.get("job-1").report
        rerun = BenchmarkConfig.from_json(
            legacy.get("job-2").spec.config_json)

        async def main():
            svc = await start(jobs=1, resume=True)
            try:
                async with ServiceClient(socket_path=sock) as c:
                    return (await c.wait("job-1"), await c.wait("job-2"),
                            svc.scheduler.table.corrupt_records)
            finally:
                await svc.close()

        done, resumed, corrupt = run(main())
        assert corrupt == 0
        assert done["status"] == "done"
        assert done["report"] == recorded          # served, not rerun
        assert resumed["status"] == "done"
        assert resumed["report"]["tests_replayed"] == 1   # journal read
        ref = ProbingDriver(rerun).run()
        assert resumed["report"]["pessimistic_indices"] == \
            ref.pessimistic_indices
        assert resumed["report"]["final_exe_hash"] == ref.final_exe_hash
        # the shards are not read (a cold cache): the job's verdicts go
        # to the one cache file
        assert (state / "cache" / CACHE_FILENAME).exists()
