"""The job scheduler: asyncio front, :class:`~repro.oraql.pool.WorkerPool`
back.

Jobs admitted by the server run on the worker pool every parallel
caller shares, through the session runner ``--jobs`` uses
(:func:`~repro.oraql.parallel.run_session`), under the pool's
worker-loss contract: a job whose worker died (``os._exit``, OOM,
``kill -9``, an injected :class:`~repro.faults.injector.SessionKilled`)
is requeued with bounded retries, **resuming from its per-job session
journal** so the retry replays the interrupted search instead of
re-paying the test bill.

Every job opens the one :class:`~repro.oraql.cache.VerdictCache` under
``<state_dir>/cache``, the single-file layout ``--cache-dir`` shares
across processes, so concurrent sessions of one workload share
verdicts.

Determinism: compilation is a pure function of (config, sequence) and
the cache only memoizes verdicts, so concurrent, cached, resumed, and
requeued jobs all report the same ``pessimistic_indices`` and
``final_exe_hash`` as a sequential
:class:`~repro.oraql.driver.ProbingDriver` run.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, List, Optional

from ..oraql.driver import ProbingReport
from ..oraql.errors import ProbingError
from ..oraql.parallel import JobSpec, run_session
from ..oraql.pool import WorkerPool
from .jobs import (JobRecord, JobTable, importance_report_to_dict,
                   report_to_dict)


# -- worker-side entry point (module level so it pickles) ---------------------

def _execute_job(spec_dict: dict, paths: dict, attempt: int,
                 resume: bool):
    """The worker-side entry point of every job: :func:`run_session`.

    A function of this module, not an alias: a host that replaces it
    (the benchmark's job hook) copies its name with ``functools.wraps``,
    and the pool pickles the replacement by that name."""
    return run_session(spec_dict, paths, attempt, resume)


def _wire_report(report) -> dict:
    """The job table's (and the wire's) form of a worker's report."""
    if isinstance(report, ProbingReport):
        return report_to_dict(report)
    return importance_report_to_dict(report)


# -- the scheduler ------------------------------------------------------------

class ProbingScheduler:
    """Admits jobs and drives them to completion.

    Owns the state directory layout::

        <state_dir>/jobs.jsonl            durable job table
        <state_dir>/cache/                the shared verdict cache
        <state_dir>/journals/<job_id>...  per-job session journals
        <state_dir>/events/<job_id>...    per-job event streams

    ``resume=True`` replays the job table and resubmits every
    unfinished job (each resuming its own session journal).
    """

    def __init__(self, state_dir: str, jobs: int = 2,
                 resume: bool = False):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.cache_root = os.path.join(state_dir, "cache")
        self.journal_dir = os.path.join(state_dir, "journals")
        self.events_dir = os.path.join(state_dir, "events")
        for d in (self.cache_root, self.journal_dir, self.events_dir):
            os.makedirs(d, exist_ok=True)
        self.table = JobTable(os.path.join(state_dir, "jobs.jsonl"),
                              resume=resume)
        self._pool = WorkerPool(max(1, jobs))
        self._tasks: Dict[str, asyncio.Task] = {}
        self._done_events: Dict[str, asyncio.Event] = {}
        self._job_counter = self.table.next_job_number()

    @property
    def pool_respawns(self) -> int:
        """Pool respawns performed (observability)."""
        return self._pool.respawns

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Resubmit unfinished jobs (``--resume``)."""
        for job in self.table.unfinished():
            self._launch(job, resume=True)

    async def close(self) -> None:
        for task in list(self._tasks.values()):
            task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # join the workers, so that none outlives the server
        await asyncio.to_thread(self._pool.shutdown)

    # -- admission ---------------------------------------------------------
    def next_job_id(self) -> str:
        job_id = f"job-{self._job_counter}"
        self._job_counter += 1
        return job_id

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job: durable record, launch.

        Raises ``ValueError`` on a duplicate id."""
        job = self.table.admit(spec)
        self._launch(job, resume=False)
        return job

    def _launch(self, job: JobRecord, resume: bool) -> None:
        self._done_events[job.spec.id] = asyncio.Event()
        self._tasks[job.spec.id] = asyncio.get_event_loop().create_task(
            self._run_job(job, resume=resume))

    # -- paths -------------------------------------------------------------
    def events_path(self, job_id: str) -> str:
        return os.path.join(self.events_dir, f"{job_id}.events.jsonl")

    def _journal_path(self, spec: JobSpec) -> str:
        if spec.kind == "importance":
            # the importance driver names its two journals itself,
            # inside a per-job directory
            return os.path.join(self.journal_dir, spec.id)
        return os.path.join(self.journal_dir,
                            f"{spec.id}.journal.jsonl")

    # -- execution ---------------------------------------------------------
    async def _run_job(self, job: JobRecord, resume: bool) -> None:
        spec = job.spec
        paths = {"cache_root": self.cache_root,
                 "journal_path": self._journal_path(spec),
                 "events_path": self.events_path(spec.id)}
        spec_dict = spec.to_dict()
        try:
            job.status = "running"
            # _execute_job is looked up now, not at import: a host that
            # wraps it (the benchmark's job hook) reaches the workers
            task = self._pool.submit(
                _execute_job,
                lambda attempt: (spec_dict, paths, attempt,
                                 resume or attempt > 0),
                name=spec.id, worker_errors=job.worker_errors)
            report = _wire_report(await asyncio.wrap_future(task.future))
            if job.worker_errors:
                report["worker_errors"] = (list(job.worker_errors)
                                           + (report.get("worker_errors")
                                              or []))
            self.table.finish(spec.id, "done", report=report)
        except asyncio.CancelledError:
            self.table.finish(spec.id, "cancelled",
                              error="cancelled by client")
            raise
        except ProbingError as e:
            self.table.finish(spec.id, "failed", error=str(e))
        except Exception as e:
            self.table.finish(spec.id, "failed",
                              error=f"{type(e).__name__}: {e}")
        finally:
            self._tasks.pop(spec.id, None)
            event = self._done_events.get(spec.id)
            if event is not None:
                event.set()

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.table.get(job_id)

    def all_jobs(self) -> List[JobRecord]:
        return list(self.table.jobs.values())

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state."""
        job = self.table.jobs[job_id]
        if not job.finished:
            event = self._done_events.get(job_id)
            if event is not None:
                await event.wait()
        return job

    def cancel(self, job_id: str) -> bool:
        """Best-effort cancel; returns whether a task was signalled.
        A job already executing in a worker cannot be interrupted — it
        runs to completion and is then recorded cancelled."""
        task = self._tasks.get(job_id)
        if task is None:
            return False
        task.cancel()
        return True
