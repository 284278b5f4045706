"""Referee for the one session runner behind ``--jobs`` and the service.

Both callers hand :func:`repro.oraql.parallel.run_session` a
:class:`~repro.oraql.parallel.JobSpec` dict on the shared worker pool,
so the same configurations give the same reports either way — every
field of ``report_to_dict``, not only the answers.  The second half
pins the contract the benchmark's job hook (``bench/serve.py``) relies
on: the scheduler looks ``_execute_job`` up when a job is submitted and
calls it as ``(spec_dict, paths, attempt, resume)``, with the job id in
``spec_dict["id"]`` and the state dir as the parent of
``paths["cache_root"]``.
"""

import asyncio
import functools
import json
import os

from repro.oraql.parallel import ParallelProbingDriver
from repro.service import ProbingService, ServiceClient
from repro.service import scheduler as scheduler_module
from repro.service.jobs import report_to_dict
from repro.workloads.base import get_config

#: one row that bisects, one that is fully optimistic
ROWS = ["TestSNAP-openmp", "MiniGMG-sse"]


def _serve(state, sock, submit):
    """Run ``submit(client)`` against a fresh 2-worker service."""
    async def main():
        svc = ProbingService(state, jobs=2, socket_path=sock)
        await svc.start()
        try:
            async with ServiceClient(socket_path=sock) as c:
                return await submit(c)
        finally:
            await svc.close()
    return asyncio.run(main())


def test_jobs_and_service_reports_are_equal(tmp_path):
    # both sides run with a fresh verdict cache and a journal, so the
    # cache and replay counters agree too: no field is excluded
    reports = ParallelProbingDriver(
        [get_config(name) for name in ROWS], jobs=2,
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journals")).run()

    async def submit(c):
        ids = [await c.submit(workload=name) for name in ROWS]
        return [await c.wait(job_id) for job_id in ids]

    results = _serve(str(tmp_path / "state"), str(tmp_path / "s.sock"),
                     submit)
    for report, result in zip(reports, results):
        assert result["status"] == "done"
        assert result["report"] == report_to_dict(report)


def test_bench_hook_contract(tmp_path, monkeypatch):
    state = str(tmp_path / "state")
    execute = scheduler_module._execute_job

    # bench/serve.py's shape: a closure that takes the entry point's
    # name with functools.wraps, so the pool pickles it by that name
    @functools.wraps(execute)
    def hook(spec_dict, paths, attempt, resume):
        state_dir = os.path.dirname(paths["cache_root"])
        with open(os.path.join(state_dir, "hook.jsonl"), "a") as f:
            f.write(json.dumps({"id": spec_dict["id"], "state": state_dir,
                                "attempt": attempt,
                                "resume": resume}) + "\n")
        return execute(spec_dict, paths, attempt, resume)

    async def submit(c):
        # replaced after the server started: the lookup happens per job
        monkeypatch.setattr(scheduler_module, "_execute_job", hook)
        job_id = await c.submit(workload="MiniGMG-sse", id="r0-c1-2")
        return job_id, await c.wait(job_id)

    job_id, result = _serve(state, str(tmp_path / "s.sock"), submit)
    with open(os.path.join(state, "hook.jsonl")) as f:
        calls = [json.loads(line) for line in f]
    assert calls == [{"id": job_id, "state": state, "attempt": 0,
                      "resume": False}]
    assert result["status"] == "done"
    assert result["report"]["config_name"] == \
        get_config("MiniGMG-sse").name
