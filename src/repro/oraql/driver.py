"""The ORAQL probing driver (paper §IV-B).

Workflow (Fig. 1):

1. compile + run with the ORAQL pass deactivated; the verification
   script must accept this baseline (its output also serves as the
   reference when the config does not ship one);
2. attempt the *empty sequence* — every query answered no-alias; if the
   tests still pass, report full optimism and stop;
3. otherwise bisect to pin down the queries that must be answered
   pessimistically.  The search policy is a pluggable
   :class:`~repro.oraql.strategies.Strategy` (propose/observe/done
   lifecycle, ``repro.oraql.strategies``); the registry ships the
   paper's two —

   * **chunked** — exploit that the query stream up to index k depends
     only on the answers to queries < k: repeatedly re-try "prefix +
     all-optimistic", and when it fails, binary-search the earliest
     failing decision, fix it pessimistic, extend the prefix, repeat.
     The binary-search sibling whose outcome is implied by its parent
     and its tested sibling is *deduced*, not run (Fig. 2's dotted
     arrow);
   * **frequency** — split the index space by residue classes
     (even/odd, then mod 4, ...), descriptors independent of the
     sequence length; clustered dangerous queries force descent to
     near-singleton classes, which is why chunked usually wins —

   plus the strategy lab's **provenance-prior** (learned danger
   ordering);

4. every candidate executable is hashed; a sequence that produces a
   bit-identical executable reuses the recorded test verdict instead of
   re-running the tests;

5. every probe's answer log is remembered (:mod:`repro.oraql.replay`):
   a sequence that repeats the first ``n`` answers of an earlier
   compile builds that compile's executable, so when its verdict is
   known the probe skips the compile too (``compiles_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..faults.injector import FaultInjector
from .cache import VerdictCache, config_fingerprint
from .compiler import CompiledProgram, Compiler
from .config import BenchmarkConfig
from .errors import FlakyConfigError, ProbingError
from .executor import ExecutorPolicy, TestExecutor, TestOutcome
from .journal import SessionJournal
from .pass_ import DumpFlags, OraqlAAPass, QueryRecord
from .replay import AnswerLog, AnswerMemo, AnswerReplayError, answer_log
from .sequence import DecisionSequence, sequence_from_pessimistic_set
from .strategies import StrategyContext, create_strategy, strategy_names
from .verify import RunResult, VerificationScript, triage_run


class TestBudgetExhausted(RuntimeError):
    """Raised internally when ``max_tests`` is reached; the driver
    converts it into a partial report flagged ``budget_exhausted``."""


@dataclass
class ProbingReport:
    """Everything the driver learned about one benchmark configuration."""

    config_name: str
    fully_optimistic: bool
    final_sequence: DecisionSequence
    pessimistic_indices: List[int]
    #: the search strategy that produced this report
    strategy: str = "chunked"
    # Fig. 4 columns
    opt_unique: int = 0
    opt_cached: int = 0
    pess_unique: int = 0
    pess_cached: int = 0
    no_alias_original: int = 0
    no_alias_oraql: int = 0
    # probing effort
    compiles: int = 0
    #: probes whose compile answer replay skipped: an earlier compile
    #: with the same answers fixed their executable and its verdict
    compiles_skipped: int = 0
    tests_run: int = 0
    tests_cached: int = 0
    tests_deduced: int = 0
    #: persistent verdict-cache traffic (0/0 when no cache is attached)
    cache_hits: int = 0
    cache_misses: int = 0
    #: triage class -> number of *executed* tests that ended that way
    #: (cached/deduced verdicts are not re-triaged)
    triage_counts: Dict[str, int] = field(default_factory=dict)
    #: transient-fault retries the executor performed (compiler faults)
    retries: int = 0
    #: nondeterminism-probe re-runs (a mismatch executed twice)
    nondet_reruns: int = 0
    #: verdicts replayed from a session journal on ``--resume``
    tests_replayed: int = 0
    #: worker losses the session survived (each requeue, see
    #: :mod:`repro.oraql.pool`)
    worker_errors: List[str] = field(default_factory=list)
    #: the probing session itself failed; ``error`` says how.  Only the
    #: parallel fan-out produces failed reports (a sequential session
    #: raises instead) — one crashing config must not lose the fleet
    failed: bool = False
    error: Optional[str] = None
    #: True when ``max_tests`` ran out: ``pessimistic_indices`` is the
    #: best-known (possibly insufficient) set rather than a verified
    #: locally-maximal one
    budget_exhausted: bool = False
    #: AnalysisManager bookkeeping summed over every in-process compile:
    #: analysis name -> number of from-scratch constructions, and the
    #: rebuilds fine-grained invalidation avoided (cache hits on results
    #: that survived an invalidation event)
    analysis_builds: Dict[str, int] = field(default_factory=dict)
    analysis_preserved_hits: Dict[str, int] = field(default_factory=dict)
    #: pass runs across every in-process compile of the session
    pass_executions: int = 0
    #: content hash of the final executable — the cross-process identity
    #: the service's bit-identity contract is stated in (the live
    #: ``final_program`` does not survive :meth:`detach_for_transport`)
    final_exe_hash: Optional[str] = None
    # provenance
    unique_by_pass: Dict[str, int] = field(default_factory=dict)
    pessimistic_records: List[QueryRecord] = field(default_factory=list)
    #: pre-rendered Fig. 3 dump, filled when the live records are
    #: detached for cross-process transport
    pessimistic_dump: Optional[str] = None
    #: serialized phase-timer tree (``-time-passes``), present when the
    #: session ran with tracing
    phase_timers: Optional[dict] = None
    #: rendered ``-Rpass``-style remarks from the *final* compile,
    #: present when the session ran with tracing
    remarks: List[str] = field(default_factory=list)
    final_program: Optional[CompiledProgram] = None
    baseline_program: Optional[CompiledProgram] = None

    @property
    def no_alias_delta_percent(self) -> float:
        if self.no_alias_original == 0:
            return 0.0
        return 100.0 * (self.no_alias_oraql - self.no_alias_original) \
            / self.no_alias_original

    def summary(self) -> str:
        if self.failed:
            return f"{self.config_name}: FAILED ({self.error})"
        extra = ""
        if self.cache_hits or self.cache_misses:
            extra += f", {self.cache_hits} verdict-cache hits"
        if self.tests_replayed:
            extra += f", {self.tests_replayed} journal-replayed"
        if self.retries:
            extra += f", {self.retries} retries"
        if self.budget_exhausted:
            extra += ", BUDGET EXHAUSTED"
        return (
            f"{self.config_name}: opt {self.opt_unique}/{self.opt_cached} "
            f"pess {self.pess_unique}/{self.pess_cached} "
            f"no-alias {self.no_alias_original} -> {self.no_alias_oraql} "
            f"({self.no_alias_delta_percent:+.1f}%) "
            f"[{self.compiles} compiles, {self.compiles_skipped} skipped, "
            f"{self.tests_run} tests, "
            f"{self.tests_cached} cached, {self.tests_deduced} deduced"
            f"{extra}]")

    def detach_for_transport(self) -> "ProbingReport":
        """Drop live compiler objects so the report survives pickling
        across process boundaries; the Fig. 3 dump is pre-rendered."""
        from .report import render_pessimistic_dump
        if self.pessimistic_records:
            self.pessimistic_dump = render_pessimistic_dump(self)
        self.pessimistic_records = []
        self.final_program = None
        self.baseline_program = None
        return self


class ProbingDriver:
    """Finds a locally-maximal set of optimistic answers for one config."""

    #: sequence padding so "everything beyond the known range" stays
    #: pessimistic while we probe (the pass answers past-the-end queries
    #: optimistically, so explicit 0-padding expresses "pessimistic tail")
    TAIL_PAD = 4

    def __init__(self, config: BenchmarkConfig,
                 compiler: Optional[Compiler] = None,
                 strategy: str = "chunked",
                 max_tests: int = 10_000,
                 verdict_cache: Optional[VerdictCache] = None,
                 policy: Optional[ExecutorPolicy] = None,
                 executor: Optional[TestExecutor] = None,
                 journal: Optional[SessionJournal] = None,
                 injector: Optional[FaultInjector] = None,
                 trace=None):
        if strategy not in strategy_names():
            raise ValueError(
                f"unknown strategy {strategy!r} (known: "
                f"{', '.join(strategy_names())})")
        self.config = config
        self.compiler = compiler or Compiler()
        self.strategy = strategy
        self._strategy = create_strategy(strategy)
        self.max_tests = max_tests
        self.verifier: Optional[VerificationScript] = None
        self.verdict_cache = verdict_cache
        self.trace = trace
        self.executor = executor or TestExecutor(self.compiler,
                                                 policy=policy,
                                                 injector=injector,
                                                 trace=trace)
        if executor is not None and trace is not None:
            executor.trace = trace
        self.journal = journal
        self._fingerprint = (config_fingerprint(config)
                             if verdict_cache is not None else "")
        #: exe hash -> (ok, triage); verdicts this session already knows
        self._hash_cache: Dict[str, Tuple[bool, str]] = {}
        #: best-known pessimistic set, maintained by the strategies so a
        #: budget-exhausted run can still report partial progress
        self._best_pessimistic: Set[int] = set()
        self._report = ProbingReport(config.name, False, DecisionSequence(),
                                     [], strategy=strategy)
        #: the all-optimistic attempt, the session's first probe.  Every
        #: other probe is released once its verdict is booked; this one
        #: once the strategy has read its query records, which point
        #: into its IR (StrategyContext.records)
        self._first_program: Optional[CompiledProgram] = None
        if injector is not None:
            # durability faults need the file paths to tear
            if verdict_cache is not None:
                injector.cache_path = verdict_cache.path
            if journal is not None:
                injector.journal_path = journal.path
        if journal is not None and journal.replayed:
            # resume: replaying journaled verdicts into the hash cache
            # makes the deterministic search retrace its exact path,
            # serving replayed probes from cache instead of re-running
            for exe, (ok, _n, triage) in journal.replayed.items():
                self._hash_cache[exe] = (ok, triage)
            self._report.tests_replayed = len(journal.replayed)
        #: answer log -> exe hash, seeded from the verdict cache's answer
        #: records and from a journal written under this compiler setup
        self._memo = AnswerMemo()
        setup = self.compiler.replay_digest
        self._answer_key = None
        if verdict_cache is not None:
            self._answer_key = VerdictCache.answer_key(self._fingerprint,
                                                       setup)
            self._memo.update(verdict_cache.answers(self._answer_key))
        #: answer logs the journal holds (None: it takes none, because
        #: its header is lost or names another compiler setup)
        self._journaled: Optional[Set[AnswerLog]] = None
        if journal is not None and journal.setup == setup:
            self._memo.update(journal.answer_logs)
            self._journaled = {(n, pess)
                               for n, pess, _exe in journal.answer_logs}

    # -- the test oracle -----------------------------------------------------
    def _compile(self, sequence: Optional[DecisionSequence],
                 oraql_enabled: bool = True,
                 label: str = "probe") -> CompiledProgram:
        self._report.compiles += 1
        if self.trace is not None:
            self.trace.begin_compile(
                label, bits=sequence.bits if sequence is not None else None)
        prog = self.executor.compile(self.config, sequence=sequence,
                                     oraql_enabled=oraql_enabled)
        self._report.pass_executions += prog.pass_executions
        counters = prog.analysis_counters
        for name, n in counters["builds"].items():
            self._report.analysis_builds[name] = \
                self._report.analysis_builds.get(name, 0) + n
        for name, n in counters["preserved_hits"].items():
            self._report.analysis_preserved_hits[name] = \
                self._report.analysis_preserved_hits.get(name, 0) + n
        return prog

    def _test(self, sequence: DecisionSequence) -> TestOutcome:
        self.executor.begin_test()
        first = self._report.tests_run + self._report.tests_cached == 0
        hit = self._memo.lookup(sequence.bits)
        if hit is not None and self._verdict_known(hit[0]) \
                and not (first and self._strategy.reads_first_records):
            return self._replay(sequence, *hit)
        prog = self._compile(sequence)
        if first:
            self._first_program = prog  # no verdict booked yet
        n = prog.oraql.unique_queries
        log = answer_log(sequence.bits, n)
        self._memo.add(log, prog.exe_hash)
        try:
            outcome = self._verdict_for(
                prog.exe_hash, n,
                lambda: self.executor.run_and_verify(prog, self.verifier),
                log)
        finally:
            if prog is not self._first_program:
                prog.release()  # the verdict is booked: free the probe
        self._remember(log, prog.exe_hash)
        return outcome

    def _replay(self, sequence: DecisionSequence, exe_hash: str,
                unique_queries: int) -> TestOutcome:
        """A probe whose executable earlier answers decide and whose
        verdict is known: book it without compiling."""
        self._report.compiles_skipped += 1
        if self.trace is not None:
            self.trace.replay(sequence.bits, exe_hash)
        log = answer_log(sequence.bits, unique_queries)
        outcome = self._verdict_for(exe_hash, unique_queries,
                                    _never_run, log)
        self._remember(log, exe_hash)
        return outcome

    def _verdict_known(self, exe_hash: str) -> bool:
        return exe_hash in self._hash_cache or (
            self.verdict_cache is not None and VerdictCache.key(
                self._fingerprint, exe_hash) in self.verdict_cache)

    def _remember(self, log: AnswerLog, exe_hash: str) -> None:
        """Persist an answer log beside its verdict: in the verdict
        cache, and in the journal when it holds this compiler's logs."""
        if self._answer_key is not None:
            self.verdict_cache.put_answers(self._answer_key, log, exe_hash)
        if self._journaled is not None and log not in self._journaled:
            self._journaled.add(log)
            self.journal.record_answers(exe_hash, *log)

    def _verdict_for(self, exe_hash: str, unique_queries: int,
                     run_test: Callable[[], TestOutcome],
                     log: AnswerLog) -> TestOutcome:
        """Verdict lookup chain: in-memory hash cache (pre-seeded from
        the session journal on resume), then the persistent verdict
        cache, then actually running the tests (charged against the
        budget, triaged, and recorded in journal and caches)."""
        cached = self._hash_cache.get(exe_hash)
        if cached is not None:
            ok, triage = cached
            self._report.tests_cached += 1
            return TestOutcome(ok, unique_queries, exe_hash,
                               from_cache=True, triage=triage)
        key = None
        if self.verdict_cache is not None:
            key = VerdictCache.key(self._fingerprint, exe_hash)
            record = self.verdict_cache.get_record(key)
            if record is not None:
                verdict, triage = record
                self._report.cache_hits += 1
                self._report.tests_cached += 1
                self._hash_cache[exe_hash] = (
                    verdict,
                    triage or ("ok" if verdict else "wrong-output"))
                self._journal_probe(exe_hash, verdict, unique_queries,
                                    self._hash_cache[exe_hash][1], log)
                return TestOutcome(verdict, unique_queries, exe_hash,
                                   from_cache=True, triage=triage)
            self._report.cache_misses += 1
        if self._report.tests_run >= self.max_tests:
            raise TestBudgetExhausted("probing exceeded the test budget")
        self._report.tests_run += 1
        outcome = run_test()
        self._book_outcome(outcome)
        if outcome.flaky:
            raise FlakyConfigError(
                f"nondeterministic verdict for {self.config.name}: the "
                f"same executable ({exe_hash[:12]}…) passed and failed "
                f"verification — config quarantined",
                outcome=outcome, explain=self._explain(outcome))
        self._hash_cache[exe_hash] = (outcome.ok, outcome.triage)
        self._journal_probe(exe_hash, outcome.ok, unique_queries,
                            outcome.triage, log)
        if key is not None:
            self.verdict_cache.put(key, outcome.ok, triage=outcome.triage)
        return outcome

    def _book_outcome(self, outcome: TestOutcome) -> None:
        r = self._report
        r.triage_counts[outcome.triage] = \
            r.triage_counts.get(outcome.triage, 0) + 1
        r.retries = self.executor.retries_used
        r.nondet_reruns = self.executor.nondet_reruns

    def _journal_probe(self, exe_hash: str, ok: bool, n: int,
                       triage: str, log: AnswerLog) -> None:
        if self.journal is None:
            return
        if self._journaled is None or log in self._journaled:
            self.journal.record_probe(exe_hash, ok, n, triage)
        else:
            self._journaled.add(log)
            self.journal.record_probe(exe_hash, ok, n, triage, log[1])

    def _explain(self, outcome: TestOutcome) -> Optional[str]:
        if outcome.run is not None and self.verifier is not None:
            return self.verifier.explain(outcome.run)
        return None

    # -- main entry ----------------------------------------------------------
    def run(self) -> ProbingReport:
        report = self._report
        cfg = self.config
        self.executor.begin_session()
        if self.trace is not None:
            self.trace.session(cfg.name, self.strategy)

        # 1. baseline: ORAQL deactivated
        baseline = self._compile(None, oraql_enabled=False,
                                 label="baseline")
        report.baseline_program = baseline
        report.no_alias_original = baseline.no_alias_count
        base_run = baseline.run(fuel=self.executor.policy.fuel,
                                wall_clock=self.executor.policy.wall_clock)
        references = list(cfg.reference_outputs)
        if not references:
            if not base_run.ok:
                raise ProbingError(
                    f"baseline run failed: {base_run.state} "
                    f"({base_run.error})",
                    triage=triage_run(base_run))
            references = [base_run.stdout]
        self.verifier = VerificationScript(references, cfg.output_filters)
        if not self.verifier.check(base_run):
            raise ProbingError(
                "baseline does not verify against the reference output",
                triage=self.verifier.triage(base_run),
                explain=self.verifier.explain(base_run))

        # 2. the fully optimistic attempt (empty sequence)
        pess: Set[int] = set()
        try:
            first = self._test(DecisionSequence())
            if first.ok:
                report.fully_optimistic = True
            else:
                # 3. bisection, by the configured strategy
                pess = self._probe(first)
        except TestBudgetExhausted:
            # budget-graceful degradation: keep everything learned so
            # far instead of losing the whole run
            report.budget_exhausted = True
            pess = set(self._best_pessimistic)
        finally:
            self._release_first()

        # 4. final compile with the discovered sequence, full bookkeeping
        final_seq = sequence_from_pessimistic_set(pess)
        final = self._compile(final_seq, label="final")
        final_run = final.run(fuel=self.executor.policy.fuel,
                              wall_clock=self.executor.policy.wall_clock)
        if not self.verifier.check(final_run) and not report.budget_exhausted:
            raise ProbingError(
                "final sequence does not verify — non-deterministic "
                "compilation or verification",
                triage=self.verifier.triage(final_run),
                explain=self.verifier.explain(final_run))
        report.final_sequence = final_seq
        report.pessimistic_indices = sorted(pess)
        report.final_program = final
        report.final_exe_hash = final.exe_hash
        oraql = final.oraql
        report.opt_unique = oraql.opt_unique
        report.opt_cached = oraql.opt_cached
        report.pess_unique = oraql.pess_unique
        report.pess_cached = oraql.pess_cached
        report.no_alias_oraql = final.no_alias_count
        report.unique_by_pass = dict(oraql.unique_by_pass)
        report.pessimistic_records = oraql.pessimistic_records()
        report.retries = self.executor.retries_used
        report.nondet_reruns = self.executor.nondet_reruns
        if self.journal is not None and not report.budget_exhausted:
            self.journal.record_done(report.pessimistic_indices)
        if self.trace is not None:
            self.trace.record_done(report.pessimistic_indices)
            report.phase_timers = self.trace.timer.to_dict()
            report.remarks = self.trace.remark_lines("final")
        return report

    def _release_first(self) -> None:
        """Free the all-optimistic probe (its release empties its query
        records too)."""
        if self._first_program is not None:
            self._first_program.release()
            self._first_program = None

    # -- the strategy lifecycle loop --------------------------------------
    def _probe(self, first: TestOutcome) -> Set[int]:
        """Drive the configured strategy through its propose/observe
        lifecycle.  The strategy owns the search policy; the driver
        owns compilation, verdict caching, journaling, and budgets."""
        strat = self._strategy
        records = (self._first_program.oraql.records
                   if self._first_program is not None else [])
        ctx = StrategyContext(first=first, records=records,
                              tail_pad=self.TAIL_PAD,
                              explain=self._explain)
        base_deduced = self._report.tests_deduced
        strat.start(ctx)
        self._release_first()  # the strategy has read the records
        while not strat.done():
            probe = strat.propose()
            # best_known() before the probe: a budget exhausted inside
            # _test still reports every index learned so far
            self._best_pessimistic = set(strat.best_known())
            outcome = self._test(probe.sequence)
            strat.observe(probe, outcome)
            self._report.tests_deduced = base_deduced + strat.deduced
        self._best_pessimistic = set(strat.best_known())
        return strat.result()


def _never_run() -> TestOutcome:
    raise AnswerReplayError(
        "a replayed probe's verdict went missing before it was read")
