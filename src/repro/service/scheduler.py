"""The job scheduler: asyncio front, process-pool back.

Jobs admitted by the server are executed on a shared
:class:`~concurrent.futures.ProcessPoolExecutor` — the same worker
substrate as the parallel probing engine, with the same resilience
contract: a worker dying (``os._exit``, OOM, ``kill -9``) breaks the
pool; the scheduler respawns it and requeues the affected jobs with
bounded retries, **resuming each from its per-job session journal** so
the retry replays the interrupted search instead of re-paying the test
bill.  An injected :class:`~repro.faults.injector.SessionKilled` is
treated the same way (it models the session's process dying).

The **verdict cache** is sharded per config fingerprint
(:meth:`VerdictCache.shard_for`), so concurrent sessions of one
workload share verdicts while different workloads never contend.

Determinism: compilation is a pure function of (config, sequence) and
the shard only memoizes verdicts, so concurrent, cached, resumed, and
requeued jobs all report the same ``pessimistic_indices`` and
``final_exe_hash`` as a sequential
:class:`~repro.oraql.driver.ProbingDriver` run.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from ..faults.injector import FaultInjector, SessionKilled
from ..oraql.cache import VerdictCache, config_fingerprint
from ..oraql.config import BenchmarkConfig
from ..oraql.driver import ProbingDriver
from ..oraql.errors import ProbingError
from ..oraql.executor import ExecutorPolicy
from ..oraql.journal import SessionJournal
# a job is requeued after its worker died at most this many times before
# it is reported failed — the parallel engine's contract
from ..oraql.parallel import MAX_WORKER_RETRIES
from .jobs import (JobRecord, JobSpec, JobTable, importance_report_to_dict,
                   report_to_dict)
from .quota import QuotaRegistry


# -- worker-side entry point (module level so it pickles) ---------------------

def _execute_job(spec_dict: dict, paths: dict, attempt: int,
                 resume: bool) -> dict:
    """Run one job to completion inside a worker process.

    Returns the serialized report dict.  Everything deterministic about
    the session — config, strategy, budgets, fault plan, journal path —
    arrives in ``spec_dict``/``paths`` so a requeued attempt replays
    the identical session (modulo the faults armed for ``attempt``).
    """
    spec = JobSpec.from_dict(spec_dict)
    cfg = BenchmarkConfig.from_json(spec.config_json)
    fingerprint = config_fingerprint(cfg)
    cache = VerdictCache.shard_for(paths["cache_root"], fingerprint)
    injector = FaultInjector.from_json_plan(spec.fault_plan,
                                            attempt=attempt)
    policy = ExecutorPolicy(fuel=spec.fuel, wall_clock=spec.wall_clock,
                            retries=spec.retries)
    trace = None
    if spec.stream:
        from ..trace.stream import JsonlStreamingTrace
        trace = JsonlStreamingTrace(paths["events_path"])

    if spec.kind == "importance":
        from ..oraql.importance import ImportanceDriver
        journal_dir = paths["journal_path"]
        os.makedirs(journal_dir, exist_ok=True)
        if trace is not None:
            trace.session(cfg.name, f"importance-{spec.strategy}")
        report = ImportanceDriver(
            cfg, strategy=spec.strategy,
            significant_percent=spec.significant_percent,
            recover_percent=spec.recover_percent,
            max_tests=spec.max_tests,
            max_measurements=spec.max_measurements,
            policy=policy, verdict_cache=cache,
            journal_dir=journal_dir, resume=resume,
            injector=injector).run()
        if trace is not None:
            trace.record_done(report.pessimistic_indices)
        if report.probing is not None:
            report.probing.detach_for_transport()
        return importance_report_to_dict(report)

    journal = SessionJournal(paths["journal_path"], fingerprint,
                             spec.strategy, resume=resume)
    report = ProbingDriver(cfg, strategy=spec.strategy,
                           max_tests=spec.max_tests,
                           verdict_cache=cache, policy=policy,
                           journal=journal, injector=injector,
                           trace=trace).run()
    return report_to_dict(report.detach_for_transport())


# -- the scheduler ------------------------------------------------------------

class ProbingScheduler:
    """Admits jobs against tenant quotas and drives them to completion.

    Owns the state directory layout::

        <state_dir>/jobs.jsonl            durable job table
        <state_dir>/cache/<fp[:2]>/...    verdict-cache shards
        <state_dir>/journals/<job_id>...  per-job session journals
        <state_dir>/events/<job_id>...    per-job event streams

    ``resume=True`` replays the job table and resubmits every
    unfinished job (each resuming its own session journal).
    """

    def __init__(self, state_dir: str, jobs: int = 2,
                 quotas: Optional[QuotaRegistry] = None,
                 resume: bool = False,
                 max_worker_retries: int = MAX_WORKER_RETRIES):
        self.state_dir = state_dir
        self.worker_count = max(1, jobs)
        self.quotas = quotas or QuotaRegistry()
        self.max_worker_retries = max_worker_retries
        os.makedirs(state_dir, exist_ok=True)
        self.cache_root = os.path.join(state_dir, "cache")
        self.journal_dir = os.path.join(state_dir, "journals")
        self.events_dir = os.path.join(state_dir, "events")
        for d in (self.cache_root, self.journal_dir, self.events_dir):
            os.makedirs(d, exist_ok=True)
        self.table = JobTable(os.path.join(state_dir, "jobs.jsonl"),
                              resume=resume)
        self._resume = resume
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._tasks: Dict[str, asyncio.Task] = {}
        self._done_events: Dict[str, asyncio.Event] = {}
        self._active_per_tenant: Dict[str, int] = {}
        #: pool respawns performed (observability)
        self.pool_respawns = 0
        self._job_counter = self.table.next_job_number()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Create the pool and resubmit unfinished jobs (``--resume``)."""
        self._pool_lock = asyncio.Lock()
        self._pool = ProcessPoolExecutor(max_workers=self.worker_count)
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
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- admission ---------------------------------------------------------
    def next_job_id(self) -> str:
        job_id = f"job-{self._job_counter}"
        self._job_counter += 1
        return job_id

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job: quota check, durable record, launch.

        Raises :class:`~repro.service.quota.QuotaExceeded` on admission
        refusal and ``ValueError`` on a duplicate id."""
        quota = self.quotas.get(spec.tenant)
        quota.admit(self._active_per_tenant.get(spec.tenant, 0))
        spec.fuel = quota.clamp_fuel(spec.fuel)
        spec.wall_clock = quota.clamp_wall_clock(spec.wall_clock)
        spec.max_tests = quota.clamp_max_tests(spec.max_tests)
        job = self.table.admit(spec)
        self._launch(job, resume=False)
        return job

    def _launch(self, job: JobRecord, resume: bool) -> None:
        self._done_events[job.spec.id] = asyncio.Event()
        self._active_per_tenant[job.spec.tenant] = \
            self._active_per_tenant.get(job.spec.tenant, 0) + 1
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
        try:
            job.status = "running"
            attempt = job.attempts
            while True:
                generation = self._pool_generation
                try:
                    report = await asyncio.get_event_loop() \
                        .run_in_executor(self._pool, _execute_job,
                                         spec.to_dict(), paths, attempt,
                                         resume or attempt > 0)
                    break
                except (BrokenProcessPool, SessionKilled) as e:
                    attempt += 1
                    job.attempts = attempt
                    job.worker_errors.append(
                        f"worker lost on attempt {attempt}: "
                        f"{type(e).__name__}: {e}")
                    if attempt > self.max_worker_retries:
                        self.table.finish(
                            spec.id, "failed",
                            error=f"worker lost {attempt} time(s): "
                                  f"{type(e).__name__}: {e}")
                        return
                    if isinstance(e, BrokenProcessPool):
                        await self._respawn_pool(generation)
                    # else: SessionKilled left the pool healthy — the
                    # retry resumes from the journal either way
            if job.worker_errors:
                report.setdefault("worker_errors", [])
                report["worker_errors"] = (list(job.worker_errors)
                                           + list(report.get(
                                               "worker_errors") or []))
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
            self._active_per_tenant[spec.tenant] = max(
                0, self._active_per_tenant.get(spec.tenant, 1) - 1)
            self._tasks.pop(spec.id, None)
            event = self._done_events.get(spec.id)
            if event is not None:
                event.set()

    async def _respawn_pool(self, seen_generation: int) -> None:
        """Replace a broken pool exactly once per break: concurrent
        jobs all observe the break, only the first respawns."""
        async with self._pool_lock:
            if self._pool_generation != seen_generation:
                return  # someone else already respawned
            old = self._pool
            self._pool_generation += 1
            self.pool_respawns += 1
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(
                max_workers=self.worker_count)

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
