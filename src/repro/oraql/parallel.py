"""One probing session per pool task: the runner behind ``--jobs`` and
the service.

Every Fig. 4 row is an independent compile-and-test search, so
:class:`ParallelProbingDriver` probes whole configurations
concurrently, one sequential :class:`~repro.oraql.driver.ProbingDriver`
per task on a :class:`~repro.oraql.pool.WorkerPool`.  This is the only
parallelism the paper's driver has: one configuration is bisected
sequentially (§IV-B).  The service (:mod:`repro.service`) runs its jobs
through the same worker function, :func:`run_session`, on the same pool.

A session is described by a picklable :class:`JobSpec` (as a dict) and
its ``paths``: the :class:`~repro.oraql.cache.VerdictCache` directory,
the journal, the event stream.  Every task of a fan-out shares the
persistent verdict cache (``--cache-dir``): verdicts recorded by any
worker are reusable by every later driver, including across process
restarts.

Determinism contract: compilation is a pure function of (config,
sequence), so the fan-out changes only *when* a verdict is computed,
never *what* it is.  Each task gets the same settings (policy, fault
plan, journal) whatever ``jobs`` is, so the reports are bit-identical to
the sequential driver's at every ``jobs``.

Resilience contract: the pool requeues a configuration whose worker
died, resuming it from its journal.  Worker exceptions are *captured
into the report* (``worker_errors``, a ``failed`` report for a config
that keeps crashing) — never silently dropped — so one crashing
configuration cannot lose the rest of the fleet's results.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, Sequence, Union

from ..faults.injector import FaultInjector
from .cache import VerdictCache, config_fingerprint
from .compiler import Compiler
from .config import BenchmarkConfig
from .driver import ProbingDriver, ProbingReport
from .executor import ExecutorPolicy
from .journal import SessionJournal
from .pool import WorkerPool
from .sequence import DecisionSequence
from .strategies import strategy_names
from .verify import TRIAGE_WORKER_LOST

JOB_KINDS = ("probe", "importance")

#: a job id names the job's journal and event files, so it is one
#: plain path component
JOB_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


@dataclass
class JobSpec:
    """One session, fully resolved (config JSON inline)."""

    id: str
    config_json: str
    kind: str = "probe"
    strategy: str = "chunked"
    max_tests: int = 10_000
    #: stream coarse QueryTrace events to an events file
    stream: bool = False
    #: deterministic chaos plan forwarded to the worker's injector
    fault_plan: Optional[List[dict]] = None
    #: per-test budgets and fault handling
    policy: ExecutorPolicy = field(default_factory=ExecutorPolicy)
    #: importance-mining knobs (kind == "importance")
    significant_percent: float = 2.0
    recover_percent: float = 95.0
    max_measurements: int = 2000

    def __post_init__(self) -> None:
        if not (isinstance(self.id, str) and JOB_ID.fullmatch(self.id)):
            raise ValueError(f"bad job id {self.id!r} (want "
                             f"{JOB_ID.pattern})")
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.strategy not in strategy_names():
            raise ValueError(
                f"unknown strategy {self.strategy!r} "
                f"(known: {', '.join(strategy_names())})")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict`; unknown keys (fields retired
        since the dict was written) are ignored."""
        known = {f.name for f in fields(JobSpec)}
        kwargs = {k: v for k, v in d.items() if k in known}
        if isinstance(kwargs.get("policy"), dict):
            kwargs["policy"] = ExecutorPolicy(**kwargs["policy"])
        return JobSpec(**kwargs)

    @property
    def config_name(self) -> str:
        try:
            return json.loads(self.config_json).get("name", "?")
        except ValueError:
            return "?"


def run_session(spec_dict: dict, paths: dict, attempt: int,
                resume: bool):
    """Run one session to completion (module level so it pickles).

    ``paths`` holds the verdict-cache directory (``cache_root``), the
    journal (``journal_path``: a file for a probe, a directory for an
    importance session) and, for a streamed session, ``events_path``;
    a missing or ``None`` cache or journal path runs without one.
    Returns the detached :class:`ProbingReport` of a probe, or the
    :class:`~repro.oraql.importance.ImportanceReport` (its probing
    report detached) of an importance session.  Everything about the
    session arrives in the arguments, so a requeued attempt replays the
    identical session (modulo the faults armed for ``attempt``).
    """
    spec = JobSpec.from_dict(spec_dict)
    cfg = BenchmarkConfig.from_json(spec.config_json)
    cache_root = paths.get("cache_root")
    cache = VerdictCache(cache_root) if cache_root else None
    journal_path = paths.get("journal_path")
    injector = FaultInjector.from_json_plan(spec.fault_plan,
                                            attempt=attempt)
    trace = None
    if spec.stream:
        from ..trace.stream import JsonlStreamingTrace
        trace = JsonlStreamingTrace(paths["events_path"])

    if spec.kind == "importance":
        from .importance import ImportanceDriver
        if journal_path:
            os.makedirs(journal_path, exist_ok=True)
        if trace is not None:
            trace.session(cfg.name, f"importance-{spec.strategy}")
        report = ImportanceDriver(
            cfg, strategy=spec.strategy,
            significant_percent=spec.significant_percent,
            recover_percent=spec.recover_percent,
            max_tests=spec.max_tests,
            max_measurements=spec.max_measurements,
            policy=spec.policy, verdict_cache=cache,
            journal_dir=journal_path, resume=resume,
            injector=injector).run()
        if trace is not None:
            trace.record_done(report.pessimistic_indices)
        if report.probing is not None:
            report.probing.detach_for_transport()
        return report

    journal = (SessionJournal(journal_path, config_fingerprint(cfg),
                              spec.strategy, resume=resume)
               if journal_path else None)
    compiler = Compiler()
    try:
        report = ProbingDriver(cfg, compiler=compiler,
                               strategy=spec.strategy,
                               max_tests=spec.max_tests,
                               verdict_cache=cache, policy=spec.policy,
                               journal=journal, injector=injector,
                               trace=trace).run()
        # live IR/program objects do not survive (or justify) pickling
        # back; released before the compiler drops its function memos,
        # the programs take none of the replayed bodies they lack
        return report.detach_for_transport()
    finally:
        compiler.drop_prefixes()


def _failed_report(config: BenchmarkConfig, error: str, triage: str,
                   worker_errors: List[str]) -> ProbingReport:
    """A placeholder report for a configuration whose probing session
    could not complete — the failure is carried, not dropped."""
    report = ProbingReport(config.name, False, DecisionSequence(), [])
    report.failed = True
    report.error = error
    report.triage_counts[triage] = 1
    report.worker_errors = worker_errors + [error]
    return report


class ParallelProbingDriver:
    """Probes configurations on ``jobs`` worker processes (in-process
    when ``jobs`` or the number of configurations is 1).

    Every task opens the persistent verdict cache under ``cache_dir``
    when one is given, and keeps a session journal under
    ``journal_dir`` when one is given (``resume=True`` replays it).
    """

    def __init__(self,
                 configs: Union[BenchmarkConfig, Sequence[BenchmarkConfig]],
                 jobs: Optional[int] = None,
                 strategy: str = "chunked",
                 max_tests: int = 10_000,
                 cache_dir: Optional[str] = None,
                 journal_dir: Optional[str] = None,
                 resume: bool = False,
                 policy: Optional[ExecutorPolicy] = None,
                 fault_plan: Optional[List[dict]] = None):
        if isinstance(configs, BenchmarkConfig):
            configs = [configs]
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("no configurations to probe")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.strategy = strategy
        self.max_tests = max_tests
        self.cache_dir = cache_dir
        self.journal_dir = journal_dir
        self.resume = resume
        self.policy = policy
        #: deterministic fault plan handed to every task (chaos testing);
        #: a ``worker-kill`` fault needs worker processes (jobs >= 2)
        self.fault_plan = fault_plan

    def run(self) -> List[ProbingReport]:
        """Probe every configuration; reports come back in input order."""
        tasks = []
        for i, cfg in enumerate(self.configs):
            spec = JobSpec(id=f"config-{i}", config_json=cfg.to_json(),
                           strategy=self.strategy,
                           max_tests=self.max_tests,
                           fault_plan=self.fault_plan,
                           policy=self.policy or ExecutorPolicy()).to_dict()
            paths = {"cache_root": self.cache_dir,
                     "journal_path": (
                         SessionJournal.path_for(self.journal_dir, cfg,
                                                 self.strategy)
                         if self.journal_dir else None)}
            # a requeued attempt resumes from the journal (when there is
            # one) and the shared verdict cache, replaying instead of
            # re-paying the test bill
            tasks.append((cfg.name,
                          lambda attempt, spec=spec, paths=paths:
                          (spec, paths, attempt,
                           self.resume or attempt > 0)))
        processes = min(self.jobs, len(self.configs))
        reports: List[Optional[ProbingReport]] = [None] * len(self.configs)
        with WorkerPool(processes if processes > 1 else 0) as pool:
            for i, task in pool.run(run_session, tasks):
                try:
                    report = task.future.result()
                    report.worker_errors[:0] = task.worker_errors
                except Exception as e:
                    # WorkerLost past the retry bound, or a deterministic
                    # failure (bad baseline, quarantined flaky config,
                    # ...) that retrying cannot help
                    report = _failed_report(
                        self.configs[i], f"{type(e).__name__}: {e}",
                        getattr(e, "triage", None) or TRIAGE_WORKER_LOST,
                        task.worker_errors)
                reports[i] = report
        return reports
