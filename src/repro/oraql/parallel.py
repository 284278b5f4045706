"""The parallel probing engine.

ORAQL's probing loop is embarrassingly parallel in two dimensions and
this module exploits both:

* **across benchmark configurations** — every Fig. 4 row is an
  independent compile-and-test search, so :class:`ParallelProbingDriver`
  fans whole configurations out to a
  :class:`~concurrent.futures.ProcessPoolExecutor`, one sequential
  :class:`~repro.oraql.driver.ProbingDriver` per worker;
* **across speculative bisection branches** — inside the chunked
  strategy's binary search both continuations of the pending probe
  ``g(mid)`` are known in advance (the midpoint of ``[mid, hi)`` if it
  passes, of ``[lo, mid)`` if it fails), so
  :class:`SpeculativeProbingDriver` launches both in worker processes
  while the driver waits for ``g(mid)``, then cancels or abandons the
  branch that lost the race.

Both dimensions share the persistent
:class:`~repro.oraql.cache.VerdictCache` (``--cache-dir``): verdicts
recorded by any worker are reusable by every later driver, including
across process restarts.

Determinism contract: compilation is a pure function of (config,
sequence) — same inputs produce the same ``exe_hash`` in any process —
so speculation and fan-out change only *when* a verdict is computed,
never *what* it is.  Parallel runs therefore report bit-identical
``pessimistic_indices`` to the sequential driver.

Resilience contract: a probing fleet must survive its own workers.
A worker process dying (OOM, segfault, ``kill -9``) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`; the engine detects
``BrokenProcessPool``, respawns the pool, and **requeues** the affected
configurations with bounded retries.  Worker exceptions are *captured
into the report* (``worker_errors``, a ``failed`` report for a config
that keeps crashing) — never silently dropped — so one crashing
configuration cannot lose the rest of the fleet's results.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..faults.injector import FaultInjector
from .cache import VerdictCache
from .compiler import Compiler
from .config import BenchmarkConfig
from .driver import ProbingDriver, ProbingReport, TestOutcome
from .errors import ProbingError
from .executor import ExecutorPolicy
from .journal import SessionJournal
from .sequence import DecisionSequence
from .strategies import strategy_supports_speculation
from .verify import TRIAGE_WORKER_LOST, VerificationScript

#: how many times a configuration is requeued after its worker died
#: before it is reported as permanently lost
MAX_WORKER_RETRIES = 2

#: how many times the speculative driver respawns a broken pool before
#: giving up on speculation (probing continues in-process either way)
MAX_POOL_RESPAWNS = 2


# -- worker-side entry points (module level so they pickle) ---------------

def _compile_and_test(config_json: str, bits: List[int],
                      verifier: VerificationScript,
                      time_passes: bool = False
                      ) -> Tuple[str, int, bool, str, Optional[dict]]:
    """One speculative probe: compile the config with the given decision
    bits, run it, verify.  Runs in a worker process; returns everything
    the driver needs to book the outcome (hash, query count, verdict,
    triage class) plus the worker's phase-timer tree when ``time_passes``
    — full event streams stay in-process, but timers merge cheaply."""
    from ..trace import QueryTrace
    cfg = BenchmarkConfig.from_json(config_json)
    trace = QueryTrace(record_events=False) if time_passes else None
    prog = Compiler().compile(cfg, sequence=DecisionSequence(bits),
                              oraql_enabled=True, trace=trace)
    run = prog.run()
    return (prog.exe_hash, prog.oraql.unique_queries, verifier.check(run),
            verifier.triage(run),
            trace.timer.to_dict() if trace is not None else None)


def _probe_config(config_json: str, strategy: str, max_tests: int,
                  cache_dir: Optional[str],
                  journal_dir: Optional[str] = None,
                  resume: bool = False,
                  fault_plan: Optional[List[dict]] = None,
                  attempt: int = 0,
                  time_passes: bool = False) -> ProbingReport:
    """Probe one whole configuration in a worker process."""
    from ..trace import QueryTrace
    cfg = BenchmarkConfig.from_json(config_json)
    cache = VerdictCache(cache_dir) if cache_dir else None
    journal = (SessionJournal.for_config(journal_dir, cfg, strategy,
                                         resume=resume)
               if journal_dir else None)
    injector = FaultInjector.from_json_plan(fault_plan, attempt=attempt)
    trace = QueryTrace(record_events=False) if time_passes else None
    report = ProbingDriver(cfg, strategy=strategy, max_tests=max_tests,
                           verdict_cache=cache, journal=journal,
                           injector=injector, trace=trace).run()
    # live IR/program objects do not survive (or justify) pickling back
    return report.detach_for_transport()


class SpeculativeProbingDriver(ProbingDriver):
    """Chunked probing with speculative binary-search branches.

    Overrides the sequential driver's ``_speculate`` hint to submit both
    continuations to the executor, and ``_test`` to consume a finished
    speculation instead of compiling in-process.  The probing *logic* is
    untouched, so results are bit-identical to the sequential driver.

    A speculative probe only ever costs its speculation: a worker that
    raises or dies is recorded in the report (``worker_errors``,
    ``triage_counts['worker-lost']``) and the probe is recomputed
    in-process; a broken pool is respawned up to
    :data:`MAX_POOL_RESPAWNS` times (``pool_factory``) before
    speculation is disabled for the rest of the session."""

    def __init__(self, config: BenchmarkConfig,
                 executor: ProcessPoolExecutor,
                 pool_factory=None, **kwargs):
        super().__init__(config, **kwargs)
        self._pool = executor
        self._pool_factory = pool_factory
        self._pool_respawns = 0
        self._spec: Dict[Tuple[int, ...], Future] = {}
        self._config_json = config.to_json()

    def _record_worker_loss(self, what: str) -> None:
        self._report.worker_errors.append(what)
        self._report.triage_counts[TRIAGE_WORKER_LOST] = \
            self._report.triage_counts.get(TRIAGE_WORKER_LOST, 0) + 1

    def _handle_broken_pool(self) -> None:
        """Respawn the worker pool (bounded) or disable speculation."""
        self._spec.clear()  # every pending future died with the pool
        try:
            self._pool.shutdown(wait=False)
        except Exception:
            pass
        if self._pool_factory is not None \
                and self._pool_respawns < MAX_POOL_RESPAWNS:
            self._pool_respawns += 1
            self._pool = self._pool_factory()
            self._report.worker_errors.append(
                f"worker pool respawned "
                f"({self._pool_respawns}/{MAX_POOL_RESPAWNS})")
        else:
            self._pool = None
            self._report.worker_errors.append(
                "worker pool lost; speculation disabled for the rest "
                "of the session")

    def _speculate(self, sequences: List[DecisionSequence]) -> None:
        # whatever is still pending from the previous round lost its
        # race: cancel it if it has not started, abandon it otherwise
        for key, fut in list(self._spec.items()):
            fut.cancel()
            del self._spec[key]
        if self.verifier is None or self._pool is None:
            return
        for seq in sequences:
            key = tuple(seq.bits)
            if key in self._spec:
                continue
            try:
                fut = self._pool.submit(
                    _compile_and_test, self._config_json, list(seq.bits),
                    self.verifier, time_passes=self.trace is not None)
            except (BrokenProcessPool, RuntimeError) as e:
                self._record_worker_loss(
                    f"speculation submit failed: {type(e).__name__}: {e}")
                self._handle_broken_pool()
                return
            self._spec[key] = fut
            self._report.tests_speculated += 1

    def _test(self, sequence: DecisionSequence) -> TestOutcome:
        fut = self._spec.pop(tuple(sequence.bits), None)
        if fut is not None and not fut.cancelled():
            try:
                exe_hash, n, ok, triage, timer_tree = fut.result()
            except BrokenProcessPool as e:
                # the pool (and every pending speculation) is gone —
                # record it, try to respawn, recompute in-process
                self._record_worker_loss(
                    f"speculative worker died: {type(e).__name__}: {e}")
                self._handle_broken_pool()
                return super()._test(sequence)
            except Exception as e:
                # a failed speculation only costs the speculation, but
                # the worker's exception is part of the session record —
                # swallowing it silently would hide real infrastructure
                # failures (the pre-resilience engine did exactly that)
                self._record_worker_loss(
                    f"speculative probe raised: {type(e).__name__}: {e}")
                return super()._test(sequence)
            self._report.compiles += 1
            if self.trace is not None and timer_tree is not None:
                # fold the worker's phase timings into the session tree
                self.trace.timer.merge_dict(timer_tree)
            return self._verdict_for(
                exe_hash, n,
                lambda: TestOutcome(ok, n, exe_hash, triage=triage))
        return super()._test(sequence)

    def run(self) -> ProbingReport:
        try:
            return super().run()
        finally:
            for fut in self._spec.values():
                fut.cancel()
            self._spec.clear()
            if self._pool_respawns and self._pool is not None:
                # pools we respawned are ours to shut down (the original
                # one belongs to the caller's ``with`` block)
                self._pool.shutdown(wait=False)


def _failed_report(config: BenchmarkConfig, error: str,
                   triage: str) -> ProbingReport:
    """A placeholder report for a configuration whose probing session
    could not complete — the failure is carried, not dropped."""
    report = ProbingReport(config.name, False, DecisionSequence(), [])
    report.failed = True
    report.error = error
    report.triage_counts[triage] = 1
    report.worker_errors.append(error)
    return report


class ParallelProbingDriver:
    """Probes one or many configurations with ``jobs`` worker processes.

    Given several configurations, each is probed by a sequential driver
    in its own worker (the across-configs dimension).  Given a single
    configuration with the chunked strategy, the speculative driver
    runs in-process and uses the workers for look-ahead probes (the
    across-branches dimension).  Either way every worker shares the
    persistent verdict cache under ``cache_dir`` when one is given, and
    every configuration keeps a session journal under ``journal_dir``
    when one is given (``resume=True`` replays it).
    """

    def __init__(self,
                 configs: Union[BenchmarkConfig, Sequence[BenchmarkConfig]],
                 jobs: Optional[int] = None,
                 strategy: str = "chunked",
                 max_tests: int = 10_000,
                 cache_dir: Optional[str] = None,
                 speculate: bool = True,
                 journal_dir: Optional[str] = None,
                 resume: bool = False,
                 policy: Optional[ExecutorPolicy] = None,
                 fault_plan: Optional[List[dict]] = None,
                 trace=None):
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
        self.speculate = speculate
        self.journal_dir = journal_dir
        self.resume = resume
        self.policy = policy
        #: deterministic fault plan forwarded to workers (chaos testing)
        self.fault_plan = fault_plan
        #: optional QueryTrace.  Single-config sessions run in-process
        #: and trace fully; fan-out workers ship timer trees back (the
        #: parent merges them), but event streams stay in-process
        self.trace = trace

    def _cache(self) -> Optional[VerdictCache]:
        return VerdictCache(self.cache_dir) if self.cache_dir else None

    def _journal(self, config: BenchmarkConfig) -> Optional[SessionJournal]:
        if not self.journal_dir:
            return None
        return SessionJournal.for_config(self.journal_dir, config,
                                         self.strategy, resume=self.resume)

    def run(self) -> List[ProbingReport]:
        """Probe every configuration; reports come back in input order."""
        if len(self.configs) == 1:
            return [self._run_single(self.configs[0])]
        return self._run_fanout()

    # -- one config: speculative bisection ---------------------------------
    def _run_single(self, config: BenchmarkConfig) -> ProbingReport:
        if self.jobs <= 1 or not self.speculate \
                or not strategy_supports_speculation(self.strategy):
            return ProbingDriver(
                config, strategy=self.strategy, max_tests=self.max_tests,
                verdict_cache=self._cache(), policy=self.policy,
                journal=self._journal(config),
                injector=FaultInjector.from_json_plan(self.fault_plan),
                trace=self.trace).run()
        factory = lambda: ProcessPoolExecutor(max_workers=self.jobs)  # noqa: E731
        with ProcessPoolExecutor(max_workers=self.jobs) as executor:
            driver = SpeculativeProbingDriver(
                config, executor, pool_factory=factory,
                strategy=self.strategy,
                max_tests=self.max_tests, verdict_cache=self._cache(),
                policy=self.policy, journal=self._journal(config),
                injector=FaultInjector.from_json_plan(self.fault_plan),
                trace=self.trace)
            return driver.run()

    # -- many configs: one worker per configuration -------------------------
    def _run_fanout(self) -> List[ProbingReport]:
        jobs = min(self.jobs, len(self.configs))
        if jobs <= 1:
            cache = self._cache()
            return [ProbingDriver(
                cfg, strategy=self.strategy, max_tests=self.max_tests,
                verdict_cache=cache, policy=self.policy,
                journal=self._journal(cfg), trace=self.trace).run()
                for cfg in self.configs]

        results: List[Optional[ProbingReport]] = [None] * len(self.configs)
        attempts = [0] * len(self.configs)
        remaining = list(range(len(self.configs)))
        while remaining:
            requeue: List[int] = []
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                futures = {
                    executor.submit(
                        _probe_config, self.configs[i].to_json(),
                        self.strategy, self.max_tests, self.cache_dir,
                        self.journal_dir, self.resume or attempts[i] > 0,
                        self.fault_plan, attempts[i],
                        time_passes=self.trace is not None): i
                    for i in remaining}
                pending = set(futures)
                while pending:
                    done, pending = wait(pending)
                    for fut in done:
                        i = futures[fut]
                        try:
                            results[i] = fut.result()
                            if self.trace is not None \
                                    and results[i].phase_timers is not None:
                                # merge worker timers into the session
                                # tree (the -time-passes aggregate)
                                self.trace.timer.merge_dict(
                                    results[i].phase_timers)
                            if attempts[i] > 0:
                                results[i].worker_errors.append(
                                    f"worker died; config requeued and "
                                    f"completed on attempt "
                                    f"{attempts[i] + 1}")
                        except BrokenProcessPool as e:
                            attempts[i] += 1
                            if attempts[i] > MAX_WORKER_RETRIES:
                                results[i] = _failed_report(
                                    self.configs[i],
                                    f"worker lost "
                                    f"{attempts[i]} time(s): "
                                    f"{type(e).__name__}: {e}",
                                    TRIAGE_WORKER_LOST)
                            else:
                                requeue.append(i)
                        except Exception as e:
                            # a deterministic in-worker failure (bad
                            # baseline, quarantined flaky config, ...):
                            # retrying cannot help — record it
                            triage = getattr(e, "triage", None) \
                                or TRIAGE_WORKER_LOST
                            results[i] = _failed_report(
                                self.configs[i],
                                f"{type(e).__name__}: {e}", triage)
            # a partially-probed requeued config resumes from its
            # journal (when journalling) and the shared verdict cache,
            # so the retry replays instead of re-paying the test bill
            remaining = requeue
        return [r for r in results if r is not None]
