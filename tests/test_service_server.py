"""In-process server tests: concurrent sessions, streaming, quotas,
and protocol-level error handling.

The load-bearing assertion everywhere: a job run by the service — no
matter how concurrent the fleet around it — reports the same
pessimistic set and final executable hash as a sequential
:class:`~repro.oraql.driver.ProbingDriver` run of the same workload.
"""

import asyncio
import json
import os

import pytest

from repro.oraql.driver import ProbingDriver
from repro.oraql.journal import encode_record
from repro.service import ProbingService, ServiceClient, ServiceError
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

    def test_same_workload_from_competing_tenants(self, service):
        # two tenants race the same config: the verdict-cache shard is
        # shared, the answers must not be
        start, sock = service

        async def session(tenant):
            async with ServiceClient(socket_path=sock,
                                     tenant=tenant) as c:
                job_id = await c.submit(workload="MiniGMG-sse")
                return await c.wait(job_id)

        async def main():
            svc = await start(jobs=2)
            try:
                return await asyncio.gather(session("team-a"),
                                            session("team-b"))
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


class TestQuotas:
    def test_max_active_refusal(self, service):
        from repro.service.quota import QuotaRegistry
        start, sock = service

        async def main():
            svc = await start(jobs=1, quotas=QuotaRegistry.from_specs(
                ["greedy:max_active=1"]))
            try:
                async with ServiceClient(socket_path=sock,
                                         tenant="greedy") as c:
                    first = await c.submit(workload="MiniGMG-sse")
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-ompif")
                    assert err.value.code == "quota-exceeded"
                    # after the first drains, the tenant may submit again
                    await c.wait(first)
                    second = await c.submit(workload="MiniGMG-ompif")
                    return await c.wait(second)
            finally:
                await svc.close()

        result = run(main())
        assert_matches_sequential(result["report"], "MiniGMG-ompif")

    def test_other_tenants_unaffected(self, service):
        from repro.service.quota import QuotaRegistry
        start, sock = service

        async def main():
            svc = await start(jobs=1, quotas=QuotaRegistry.from_specs(
                ["locked:max_active=0"]))
            try:
                async with ServiceClient(socket_path=sock,
                                         tenant="locked") as c:
                    with pytest.raises(ServiceError) as err:
                        await c.submit(workload="MiniGMG-sse")
                    assert err.value.code == "quota-exceeded"
                async with ServiceClient(socket_path=sock,
                                         tenant="free") as c:
                    job_id = await c.submit(workload="MiniGMG-sse")
                    return await c.wait(job_id)
            finally:
                await svc.close()

        assert run(main())["status"] == "done"


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
        assert (state / "cache").is_dir()
        shards = [p for p in (state / "cache").rglob("*.jsonl")]
        assert shards, "verdict-cache shard should have been written"
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
                "tenant": "default", "kind": "probe",
                "strategy": "chunked", "max_tests": 10_000,
                "incremental": "on", "stream": False, "fault_plan": None,
                "fuel": None, "wall_clock": None, "retries": 2}
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
