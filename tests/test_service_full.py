"""The service acceptance matrix (ISSUE acceptance criteria).

N simultaneous client sessions drive the full 16-workload suite
through the server — with at least one injected worker kill and one
server SIGKILL + ``--resume`` — and every report must be bit-identical
(pessimistic set and final executable hash) to a sequential
:class:`~repro.oraql.driver.ProbingDriver` run.

These take minutes; they are excluded from tier-1 by the ``service``
marker (``addopts = -m 'not service'``) and run explicitly with::

    pytest -m service tests/test_service_full.py

``test_smoke_*`` is the trimmed variant CI's service-smoke job runs
(``-m service -k smoke``).
"""

import asyncio

import pytest

from helpers import kill_server, spawn_server
from repro.oraql.driver import ProbingDriver
from repro.service import ProbingService, ServiceClient
from repro.workloads.base import get_config, row_names

pytestmark = pytest.mark.service

_SEQUENTIAL = {}


def sequential_reference(name):
    if name not in _SEQUENTIAL:
        _SEQUENTIAL[name] = ProbingDriver(get_config(name)).run()
    return _SEQUENTIAL[name]


def assert_matches_sequential(report_dict, name):
    ref = sequential_reference(name)
    assert report_dict["pessimistic_indices"] == \
        ref.pessimistic_indices, name
    assert report_dict["final_exe_hash"] == ref.final_exe_hash, name


KILL_FIRST_ATTEMPT = [{"kind": "worker-kill", "at": 0, "attempt": 0}]


class TestAcceptanceMatrix:
    def test_four_sessions_sixteen_workloads_with_worker_kill(
            self, tmp_path):
        """N=4 concurrent sessions split the full workload suite; one
        job additionally has its worker killed mid-probe."""
        sock = str(tmp_path / "s.sock")
        names = row_names()
        assert len(names) == 16
        # round-robin the 16 rows over 4 sessions
        lanes = [names[i::4] for i in range(4)]
        killed_workload = lanes[0][0]

        async def session(lane_index, lane):
            results = []
            async with ServiceClient(socket_path=sock) as c:
                for name in lane:
                    plan = (KILL_FIRST_ATTEMPT
                            if (lane_index, name) == (0, killed_workload)
                            else None)
                    job_id = await c.submit(workload=name,
                                            fault_plan=plan)
                    results.append((name, await c.wait(job_id)))
            return results

        async def main():
            svc = ProbingService(str(tmp_path / "state"), jobs=4,
                                 socket_path=sock)
            await svc.start()
            try:
                per_lane = await asyncio.gather(
                    *(session(i, lane)
                      for i, lane in enumerate(lanes)))
            finally:
                await svc.close()
            return svc, [r for lane in per_lane for r in lane]

        svc, results = asyncio.run(main())
        assert len(results) == 16
        for name, result in results:
            assert result["status"] == "done", (name, result)
            assert_matches_sequential(result["report"], name)
        # the injected worker kill actually happened
        assert svc.scheduler.pool_respawns >= 1
        killed = dict(results)[killed_workload]
        assert killed["report"]["worker_errors"]


class TestAcceptanceServerKill:
    def test_server_kill_and_resume_across_workloads(self, tmp_path):
        """SIGKILL the server with several jobs in flight; the resumed
        server finishes all of them bit-identically."""
        state = str(tmp_path / "state")
        sock1 = str(tmp_path / "s1.sock")
        in_flight = ["TestSNAP-openmp", "LULESH-seq", "MiniFE-openmp",
                     "TestSNAP-fortran"]
        server = spawn_server(state, sock1, jobs=2)
        try:
            async def phase1():
                async with ServiceClient(socket_path=sock1) as c:
                    quick = await c.submit(workload="MiniGMG-sse")
                    await c.wait(quick)
                    ids = [await c.submit(workload=n)
                           for n in in_flight]
                    await asyncio.sleep(1.0)  # let workers dig in
                    return quick, ids

            quick_id, ids = asyncio.run(phase1())
        finally:
            kill_server(server)

        sock2 = str(tmp_path / "s2.sock")
        server2 = spawn_server(state, sock2, resume=True, jobs=2)
        try:
            async def phase2():
                async with ServiceClient(socket_path=sock2) as c:
                    done = await c.wait(quick_id)
                    rest = [await c.wait(i) for i in ids]
                    return done, rest

            done, rest = asyncio.run(phase2())
        finally:
            kill_server(server2)

        assert done["status"] == "done"
        assert_matches_sequential(done["report"], "MiniGMG-sse")
        for name, result in zip(in_flight, rest):
            assert result["status"] == "done", (name, result)
            assert_matches_sequential(result["report"], name)


class TestSmoke:
    def test_smoke_concurrent_jobs_with_worker_kill(self, tmp_path):
        """CI's service-smoke job: a real server subprocess, 3
        concurrent jobs over 2 workloads, one worker killed by the
        fault injector — reports bit-identical to sequential runs."""
        state = str(tmp_path / "state")
        sock = str(tmp_path / "s.sock")
        server = spawn_server(state, sock, jobs=2)
        try:
            async def one(name, plan=None):
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(workload=name,
                                            fault_plan=plan)
                    return name, await c.wait(job_id)

            async def main():
                return await asyncio.gather(
                    one("MiniGMG-sse", KILL_FIRST_ATTEMPT),
                    one("GridMini-offload"),
                    one("MiniGMG-sse"))

            results = asyncio.run(main())
        finally:
            kill_server(server)

        killed = results[0][1]
        assert killed["status"] == "done"
        assert killed["report"]["worker_errors"]  # the kill happened
        for name, result in results:
            assert result["status"] == "done", (name, result)
            assert_matches_sequential(result["report"], name)
