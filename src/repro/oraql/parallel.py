"""The configuration fan-out behind ``--jobs``.

Every Fig. 4 row is an independent compile-and-test search, so
:class:`ParallelProbingDriver` probes whole configurations
concurrently, one sequential :class:`~repro.oraql.driver.ProbingDriver`
per task on a :class:`~repro.oraql.pool.WorkerPool`.  This is the only
parallelism the paper's driver has: one configuration is bisected
sequentially (§IV-B).

Every task shares the persistent :class:`~repro.oraql.cache.VerdictCache`
(``--cache-dir``): verdicts recorded by any worker are reusable by every
later driver, including across process restarts.

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

import os
from typing import List, Optional, Sequence, Union

from ..faults.injector import FaultInjector
from .cache import VerdictCache
from .config import BenchmarkConfig
from .driver import ProbingDriver, ProbingReport
from .executor import ExecutorPolicy
from .journal import SessionJournal
from .pool import WorkerPool
from .sequence import DecisionSequence
from .verify import TRIAGE_WORKER_LOST


def _probe_config(config_json: str, strategy: str, max_tests: int,
                  cache_dir: Optional[str], journal_dir: Optional[str],
                  resume: bool, policy: Optional[ExecutorPolicy],
                  fault_plan: Optional[List[dict]],
                  attempt: int) -> ProbingReport:
    """Probe one whole configuration (module level so it pickles)."""
    cfg = BenchmarkConfig.from_json(config_json)
    cache = VerdictCache(cache_dir) if cache_dir else None
    journal = (SessionJournal.for_config(journal_dir, cfg, strategy,
                                         resume=resume)
               if journal_dir else None)
    injector = FaultInjector.from_json_plan(fault_plan, attempt=attempt)
    report = ProbingDriver(cfg, strategy=strategy, max_tests=max_tests,
                           verdict_cache=cache, policy=policy,
                           journal=journal, injector=injector).run()
    # live IR/program objects do not survive (or justify) pickling back
    return report.detach_for_transport()


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

    def _args_for(self, config: BenchmarkConfig):
        config_json = config.to_json()

        def args(attempt: int) -> tuple:
            # a requeued attempt resumes from the journal (when there is
            # one) and the shared verdict cache, replaying instead of
            # re-paying the test bill
            return (config_json, self.strategy, self.max_tests,
                    self.cache_dir, self.journal_dir,
                    self.resume or attempt > 0, self.policy,
                    self.fault_plan, attempt)
        return args

    def run(self) -> List[ProbingReport]:
        """Probe every configuration; reports come back in input order."""
        processes = min(self.jobs, len(self.configs))
        reports: List[Optional[ProbingReport]] = [None] * len(self.configs)
        tasks = [(cfg.name, self._args_for(cfg)) for cfg in self.configs]
        with WorkerPool(processes if processes > 1 else 0) as pool:
            for i, task in pool.run(_probe_config, tasks):
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
