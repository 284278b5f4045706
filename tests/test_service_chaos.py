"""Chaos tests for the probing service: killed workers, killed
servers, and the resume paths that make both invisible in the reports.
"""

import asyncio
import os
import time

from helpers import alive, child_pids, kill_server, spawn_server
from repro.oraql.driver import ProbingDriver, ProbingReport
from repro.oraql.sequence import DecisionSequence
from repro.service import ProbingService, ServiceClient
from repro.service import scheduler as scheduler_module
from repro.workloads.base import get_config

_SEQUENTIAL = {}


def sequential_reference(name):
    if name not in _SEQUENTIAL:
        _SEQUENTIAL[name] = ProbingDriver(get_config(name)).run()
    return _SEQUENTIAL[name]


def assert_matches_sequential(report_dict, name):
    ref = sequential_reference(name)
    assert report_dict["pessimistic_indices"] == ref.pessimistic_indices
    assert report_dict["final_exe_hash"] == ref.final_exe_hash


def _held_job(spec_dict, paths, attempt, resume):
    """A job worker that dies on attempt 0; attempt 1 runs until the
    test creates ``<state_dir>/release``."""
    if attempt == 0:
        os._exit(1)
    release = os.path.join(os.path.dirname(paths["cache_root"]), "release")
    deadline = time.monotonic() + 60
    while not os.path.exists(release) and time.monotonic() < deadline:
        time.sleep(0.02)
    return ProbingReport("held", False, DecisionSequence(), [])


#: kills the worker at its first probe on the first attempt only — the
#: requeued attempt (attempt 1) sails through, resuming the journal
KILL_FIRST_ATTEMPT = [{"kind": "worker-kill", "at": 0, "attempt": 0}]


class TestWorkerKill:
    def test_requeued_job_bit_identical(self, tmp_path):
        sock = str(tmp_path / "s.sock")

        async def main():
            svc = ProbingService(str(tmp_path / "state"), jobs=2,
                                 socket_path=sock)
            await svc.start()
            try:
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(
                        workload="TestSNAP-seq",
                        fault_plan=KILL_FIRST_ATTEMPT)
                    result = await c.wait(job_id)
                    status = await c.status(job_id)
            finally:
                await svc.close()
            return svc, result, status

        svc, result, status = asyncio.run(main())
        assert result["status"] == "done"
        assert status["attempts"] == 1          # one requeue happened
        assert status["worker_errors"]          # and was recorded
        assert svc.scheduler.pool_respawns >= 1  # pool was replaced
        assert_matches_sequential(result["report"], "TestSNAP-seq")
        # the survived fault is surfaced in the report, like the
        # parallel engine's worker_errors
        assert result["report"]["worker_errors"]

    def test_status_mid_run_counts_the_requeue(self, tmp_path,
                                               monkeypatch):
        # a status query on a requeued job that is still running sees
        # the loss in both attempts and worker_errors
        monkeypatch.setattr(scheduler_module, "_execute_job", _held_job)
        state = str(tmp_path / "state")
        sock = str(tmp_path / "s.sock")

        async def main():
            svc = ProbingService(state, jobs=1, socket_path=sock)
            await svc.start()
            try:
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(workload="TestSNAP-seq")
                    deadline = time.monotonic() + 60
                    status = await c.status(job_id)
                    while (not status["worker_errors"]
                           and time.monotonic() < deadline):
                        await asyncio.sleep(0.02)
                        status = await c.status(job_id)
                    open(os.path.join(state, "release"), "w").close()
                    return status, await c.wait(job_id)
            finally:
                await svc.close()

        status, result = asyncio.run(main())
        assert status["status"] == "running"
        assert status["attempts"] == 1 == len(status["worker_errors"])
        assert result["status"] == "done"
        assert result["report"]["worker_errors"]

    def test_bystander_jobs_survive_the_kill(self, tmp_path):
        # a broken pool aborts every in-flight future; the innocent
        # job must be requeued+resumed too, not failed
        sock = str(tmp_path / "s.sock")

        async def main():
            svc = ProbingService(str(tmp_path / "state"), jobs=2,
                                 socket_path=sock)
            await svc.start()
            try:
                async with ServiceClient(socket_path=sock) as c:
                    doomed = await c.submit(
                        workload="TestSNAP-seq",
                        fault_plan=KILL_FIRST_ATTEMPT)
                    bystander = await c.submit(workload="MiniGMG-sse")
                    return (await c.wait(doomed),
                            await c.wait(bystander))
            finally:
                await svc.close()

        doomed, bystander = asyncio.run(main())
        assert doomed["status"] == "done"
        assert bystander["status"] == "done"
        assert_matches_sequential(doomed["report"], "TestSNAP-seq")
        assert_matches_sequential(bystander["report"], "MiniGMG-sse")

    def test_retry_exhaustion_fails_cleanly(self, tmp_path):
        # killed on every attempt -> a failed *report*, not a hung or
        # crashed server
        sock = str(tmp_path / "s.sock")
        relentless = [{"kind": "worker-kill", "at": 0, "attempt": a}
                      for a in range(6)]

        async def main():
            svc = ProbingService(str(tmp_path / "state"), jobs=1,
                                 socket_path=sock)
            await svc.start()
            try:
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(workload="MiniGMG-sse",
                                            fault_plan=relentless)
                    result = await c.wait(job_id)
                    # the server is still alive and serving
                    ok = await c.submit(workload="MiniGMG-sse")
                    return result, await c.wait(ok)
            finally:
                await svc.close()

        failed, ok = asyncio.run(main())
        assert failed["status"] == "failed"
        assert "worker lost" in failed["error"]
        assert ok["status"] == "done"


class TestServerKillResume:
    def test_sigkilled_server_resumes_bit_identically(self, tmp_path):
        state = str(tmp_path / "state")
        sock1 = str(tmp_path / "s1.sock")
        server = spawn_server(state, sock1)
        try:
            async def phase1():
                async with ServiceClient(socket_path=sock1) as c:
                    # one job allowed to finish, one caught mid-flight
                    done_id = await c.submit(workload="MiniGMG-sse")
                    await c.wait(done_id)
                    slow_id = await c.submit(workload="TestSNAP-openmp")
                    # let the slow job get properly underway
                    while (await c.status(slow_id))["status"] != \
                            "running":
                        await asyncio.sleep(0.02)
                    await asyncio.sleep(0.5)
                    return done_id, slow_id

            done_id, slow_id = asyncio.run(phase1())
        finally:
            kill_server(server)   # SIGKILL: no cleanup, no goodbye

        sock2 = str(tmp_path / "s2.sock")
        server2 = spawn_server(state, sock2, resume=True)
        try:
            async def phase2():
                async with ServiceClient(socket_path=sock2) as c:
                    return (await c.wait(done_id),
                            await c.wait(slow_id))

            done_result, slow_result = asyncio.run(phase2())
        finally:
            kill_server(server2)

        # the finished job is served from the replayed table
        assert done_result["status"] == "done"
        assert_matches_sequential(done_result["report"], "MiniGMG-sse")
        # the interrupted job was resubmitted, resumed its journal, and
        # reports exactly what an uninterrupted run would have
        assert slow_result["status"] == "done"
        assert_matches_sequential(slow_result["report"],
                                  "TestSNAP-openmp")

    def test_resume_empty_state_is_fine(self, tmp_path):
        state = str(tmp_path / "state")
        sock = str(tmp_path / "s.sock")
        server = spawn_server(state, sock, resume=True)  # nothing there
        try:
            async def main():
                async with ServiceClient(socket_path=sock) as c:
                    job_id = await c.submit(workload="MiniGMG-sse")
                    return await c.wait(job_id)

            result = asyncio.run(main())
        finally:
            kill_server(server)
        assert result["status"] == "done"


class TestCleanShutdown:
    def test_close_joins_the_pool_workers(self, tmp_path):
        """A server that shuts down cleanly leaves no worker behind."""
        sock = str(tmp_path / "s.sock")
        before = set(child_pids(os.getpid()))

        async def main():
            svc = ProbingService(str(tmp_path / "state"), jobs=2,
                                 socket_path=sock)
            await svc.start()
            try:
                async with ServiceClient(socket_path=sock) as c:
                    result = await c.wait(
                        await c.submit(workload="MiniGMG-sse"))
                return result, set(child_pids(os.getpid())) - before
            finally:
                await svc.close()

        result, workers = asyncio.run(main())
        assert result["status"] == "done"
        assert workers  # the job ran in a pool worker
        assert [pid for pid in workers if alive(pid)] == []

