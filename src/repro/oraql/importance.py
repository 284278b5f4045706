"""Second-phase importance mining (ROADMAP item 3).

The probing driver answers *"which optimistic responses are safe?"*;
this module answers the question the original ORAQL driver repo's
``oraql_identify_important.py`` asks next: *"which of those safe
no-alias answers actually buy cycles?"*.  The maximal safe optimistic
set is usually dominated by queries whose answer enables no transform —
flipping them back to may-alias costs nothing.  The few that do move
performance are exactly the alias queries worth building real analyses
for.

Algorithm
---------
Given a completed probing session (safe optimistic set ``S`` over the
unique-query index space ``[0, n)``):

1. measure ``cycles(∅)`` — every safe query flipped back to pessimistic
   (the all-may-alias program, bit-identical to the original baseline)
   — and ``cycles(S)`` — the fully optimistic program — on the
   deterministic VM cycle cost model.  Their difference is the **total
   savings** optimism buys;
2. bisect ``S`` by *measured cycle delta*: flip a candidate group back
   to pessimistic and re-measure.  A group whose flip costs less than
   ``significant_percent`` of baseline cycles is dropped (flipped
   permanently); a significant group is split and re-probed; a
   significant singleton is **important**.  Deltas are measured in the
   *current* context (drops applied immediately), so redundant query
   pairs resolve to one representative instead of hiding each other;
3. if keeping only the important queries optimistic recovers less than
   ``recover_percent`` of the total savings (non-additive interactions),
   re-probe the dropped set against the reduced context until the
   target is met or a refinement round finds nothing new;
4. report the **Pareto front**: important queries ordered by measured
   value, with the cycles recovered by each prefix — the Fig. 5-style
   "versions" table of the original driver repo (its
   ``significant_percentage`` knob is our ``--significant-percent``);
5. attribute every important query to its enabling transform via the
   trace layer: a final traced compile links each index to the issuing
   pass and to the optimization remarks it enabled ("q17 is important
   because it enables LICM hoist in ``kernel_main``").

Every cycle measurement is one compile + one VM run under the
:class:`~repro.oraql.executor.TestExecutor` budgets, cached by
executable hash (flip candidates frequently collapse to identical
binaries), journaled for crash-tolerant ``--resume``, and measured with
a **strict** :class:`~repro.vm.CostModel` so an unpriced opcode crashes
the session instead of silently distorting a delta.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..vm.cost_model import CostModel
from .cache import VerdictCache, config_fingerprint
from .compiler import Compiler
from .config import BenchmarkConfig
from .driver import ProbingDriver, ProbingReport
from .errors import ProbingError
from .executor import ExecutorPolicy, TestExecutor
from .journal import SessionJournal
from .sequence import DecisionSequence
from .verify import TRIAGE_WRONG_OUTPUT, VerificationScript


class MeasurementBudgetExhausted(RuntimeError):
    """Raised when ``max_measurements`` VM runs have been spent; the
    driver converts it into a partial report flagged ``partial``."""


@dataclass(frozen=True)
class Measurement:
    """One flip candidate's measured cost."""

    cycles: float
    ok: bool                    # the candidate still verified
    exe_hash: str = ""
    from_cache: bool = False


# ---------------------------------------------------------------------------
# cycle oracles
# ---------------------------------------------------------------------------

class SyntheticCycleOracle:
    """A stand-in measurement pipeline with a known cost structure.

    ``cycles(kept) = base − Σ savings[i] (i ∈ kept)
                          − Σ bonus (group ⊆ kept)``

    Per-query ``savings`` model independently profitable answers; joint
    ``groups`` model transforms that need several no-alias answers at
    once (a LICM hoist needing two disambiguations).  The mining
    algorithm is exercised for real — only the compile+run pipeline is
    synthetic, exactly like Fig. 2's :class:`SyntheticOracle` stands in
    for the probing test pipeline.
    """

    def __init__(self, base: float, savings: Dict[int, float],
                 groups: Sequence[Tuple[FrozenSet[int], float]] = (),
                 extra_safe: Iterable[int] = (),
                 max_measurements: Optional[int] = None):
        self.base = float(base)
        self.savings = dict(savings)
        self.groups = [(frozenset(g), float(b)) for g, b in groups]
        self._extra = set(extra_safe)
        self.max_measurements = max_measurements
        self.measurements = 0
        self.distinct: Set[FrozenSet[int]] = set()

    @property
    def safe(self) -> List[int]:
        idx: Set[int] = set(self.savings) | self._extra
        for g, _ in self.groups:
            idx |= g
        return sorted(idx)

    def measure(self, kept: FrozenSet[int]) -> Measurement:
        kept = frozenset(kept)
        if kept not in self.distinct:
            if self.max_measurements is not None \
                    and self.measurements >= self.max_measurements:
                raise MeasurementBudgetExhausted(
                    "synthetic measurement budget exhausted")
            self.measurements += 1
            self.distinct.add(kept)
        cycles = self.base
        cycles -= sum(s for i, s in self.savings.items() if i in kept)
        cycles -= sum(b for g, b in self.groups if g <= kept)
        return Measurement(cycles, True,
                           exe_hash="syn:" + ",".join(
                               str(i) for i in sorted(kept)))


class MeasuredCycleOracle:
    """The real measurement pipeline: compile the flip candidate, run it
    on the deterministic VM, verify, and cache the cycles by executable
    hash (journaled when a session journal is attached).
    """

    def __init__(self, config: BenchmarkConfig, executor: TestExecutor,
                 verifier: VerificationScript, n_queries: int,
                 cost_model: Optional[CostModel] = None,
                 journal: Optional[SessionJournal] = None,
                 verdict_cache: Optional[VerdictCache] = None,
                 max_measurements: int = 2000):
        self.config = config
        self.executor = executor
        self.verifier = verifier
        self.n = n_queries
        self.cost_model = cost_model or CostModel(strict=True)
        self.journal = journal
        self.verdict_cache = verdict_cache
        self._fingerprint = (config_fingerprint(config)
                             if verdict_cache is not None else "")
        self.max_measurements = max_measurements
        #: exe hash -> (cycles, ok); pre-seeded from a replayed journal
        #: so a resumed session retraces the search served from cache
        self._cache: Dict[str, Tuple[float, bool]] = {}
        if journal is not None:
            self._cache.update(journal.measured)
        self.measurements_replayed = len(self._cache)
        # bookkeeping for the report
        self.compiles = 0
        self.measurements_run = 0
        self.measurements_cached = 0

    def sequence_for(self, kept: FrozenSet[int]) -> DecisionSequence:
        """Bits for "keep exactly ``kept`` optimistic": every other
        index — the probing pessimistic set, dropped safe queries, and a
        generous pessimistic tail for flip-shifted streams — stays 0."""
        length = 2 * self.n + ProbingDriver.TAIL_PAD
        return DecisionSequence([1 if i in kept else 0
                                 for i in range(length)])

    def measure(self, kept: FrozenSet[int]) -> Measurement:
        self.executor.begin_test()      # chaos/session-kill fault site
        seq = self.sequence_for(kept)
        prog = self.executor.compile(self.config, sequence=seq,
                                     oraql_enabled=True)
        self.compiles += 1
        exe = prog.exe_hash
        try:
            hit = self._cache.get(exe)
            if hit is not None:
                self.measurements_cached += 1
                return Measurement(hit[0], hit[1], exe, from_cache=True)
            if self.measurements_run >= self.max_measurements:
                raise MeasurementBudgetExhausted(
                    "importance mining exceeded the measurement budget")
            self.measurements_run += 1
            policy = self.executor.policy
            r = prog.run(fuel=policy.fuel, wall_clock=policy.wall_clock,
                         cost_model=self.cost_model)
        finally:
            prog.release()  # measured or cached: free the probe
        ok = self.verifier.check(r)
        self._cache[exe] = (r.cycles, ok)
        if self.journal is not None:
            self.journal.record_measure(exe, r.cycles, ok)
        if self.verdict_cache is not None:
            self.verdict_cache.put(
                VerdictCache.key(self._fingerprint, exe), ok,
                triage="ok" if ok else TRIAGE_WRONG_OUTPUT)
        return Measurement(r.cycles, ok, exe)


# ---------------------------------------------------------------------------
# the mining algorithm (oracle-agnostic)
# ---------------------------------------------------------------------------

@dataclass
class ParetoPoint:
    """One prefix of the value-ordered important set."""

    k: int                       # how many important queries are kept
    added: Optional[int]         # the query this point adds (None: k=0)
    kept: Tuple[int, ...]
    cycles: float
    cycles_saved: float          # vs. the all-pessimistic baseline
    percent_of_full: float       # of the full optimistic set's savings


@dataclass
class MiningResult:
    """What :func:`mine_important` learned from one oracle."""

    important: List[int]         # discovery order
    dropped: List[int]
    baseline_cycles: float       # all safe queries flipped pessimistic
    optimal_cycles: float        # full safe set optimistic
    important_cycles: float      # only the important set optimistic
    threshold_cycles: float
    #: flip delta observed at discovery time (∞: the flip broke
    #: verification, so the query cannot be given up at any price)
    savings_by_query: Dict[int, float] = field(default_factory=dict)
    pareto: List[ParetoPoint] = field(default_factory=list)
    flip_failures: int = 0
    refinement_rounds: int = 0
    #: the measurement budget ran out: ``important`` is the best-known
    #: set, not a verified one
    partial: bool = False

    @property
    def total_savings(self) -> float:
        return self.baseline_cycles - self.optimal_cycles

    @property
    def recovered_savings(self) -> float:
        return self.baseline_cycles - self.important_cycles

    @property
    def recovered_percent(self) -> float:
        if self.total_savings <= 0:
            return 100.0
        return 100.0 * self.recovered_savings / self.total_savings

    def by_value(self) -> List[int]:
        """Important indices ordered by measured value (best first);
        ∞-valued (verification-required) queries lead."""
        return sorted(self.important,
                      key=lambda i: (-self.savings_by_query.get(i, 0.0), i))


def mine_important(oracle, safe: Sequence[int], threshold: float,
                   recover_percent: float = 95.0,
                   max_refinement_rounds: int = 8) -> MiningResult:
    """Bisect ``safe`` by measured cycle delta against ``oracle``.

    ``oracle`` needs one method — ``measure(kept: frozenset) ->
    Measurement`` — making the search testable against
    :class:`SyntheticCycleOracle` and runnable against
    :class:`MeasuredCycleOracle`.  Deterministic: same oracle behaviour
    and arguments ⇒ same result, measurement for measurement.
    """
    safe_sorted = sorted(set(safe))
    result = MiningResult([], [], 0.0, 0.0, 0.0, threshold)

    def cycles_of(kept: Set[int]) -> float:
        m = oracle.measure(frozenset(kept))
        if not m.ok:
            # flipping optimistic answers to pessimistic should always
            # be safe; a failing candidate means the flip shifted the
            # query stream into unsafe optimism.  The flip is simply
            # not available: infinitely costly.
            result.flip_failures += 1
            return math.inf
        return m.cycles

    try:
        result.optimal_cycles = cycles_of(set(safe_sorted))
        result.baseline_cycles = cycles_of(set())
        result.important_cycles = result.baseline_cycles

        def bisect(groups: Sequence[Sequence[int]], kept: Set[int],
                   bar: float) -> None:
            current = cycles_of(kept)
            queue: Deque[List[int]] = deque(list(g) for g in groups)
            while queue:
                group = [i for i in queue.popleft()
                         if i in kept and i not in result.important]
                if not group:
                    continue
                flipped = cycles_of(kept - set(group))
                delta = flipped - current
                if delta < bar:
                    # the whole group's optimism buys nothing: flip it
                    # permanently and keep measuring in the new context
                    kept -= set(group)
                    current = flipped
                elif len(group) == 1:
                    result.important.append(group[0])
                    result.savings_by_query[group[0]] = delta
                else:
                    mid = len(group) // 2
                    queue.append(group[:mid])
                    queue.append(group[mid:])

        bisect([safe_sorted], set(safe_sorted), threshold)
        result.important_cycles = cycles_of(set(result.important))

        # refinement: the first pass can undershoot the recovery target
        # two ways.  Non-additive interactions hide value in the dropped
        # set (a transform needing dropped q_a *and* q_b loses nothing
        # when either half is flipped alongside the other), so re-probe
        # the dropped set against the reduced context.  And the residual
        # win can be spread across queries each individually below the
        # significance bar — when a re-probe at the current bar learns
        # nothing new, halve the bar and try again: the bar stays the
        # *reporting* threshold, but ``recover_percent`` is a contract,
        # and every extra query still carries its honestly measured
        # (sub-threshold) delta.
        target = (recover_percent / 100.0) * result.total_savings
        bar = threshold
        while (result.refinement_rounds < max_refinement_rounds
               and result.total_savings > 0
               and result.recovered_savings < target):
            dropped_now = [i for i in safe_sorted
                           if i not in result.important]
            if not dropped_now:
                break
            result.refinement_rounds += 1
            found_before = len(result.important)
            bisect([dropped_now],
                   set(result.important) | set(dropped_now), bar)
            if len(result.important) == found_before:
                bar /= 2.0
                if bar < 1.0:
                    break
                continue
            result.important_cycles = cycles_of(set(result.important))
    except MeasurementBudgetExhausted:
        result.partial = True

    result.dropped = [i for i in safe_sorted if i not in result.important]

    # the Pareto front: value-ordered prefixes of the important set
    try:
        points = [ParetoPoint(0, None, (), result.baseline_cycles, 0.0, 0.0)]
        kept: List[int] = []
        for q in result.by_value():
            kept.append(q)
            c = cycles_of(set(kept))
            saved = result.baseline_cycles - c
            pct = (100.0 * saved / result.total_savings
                   if result.total_savings > 0 else 0.0)
            points.append(ParetoPoint(len(kept), q, tuple(kept), c,
                                      saved, pct))
        result.pareto = points
    except MeasurementBudgetExhausted:
        result.partial = True
        result.pareto = points
    return result


# ---------------------------------------------------------------------------
# provenance attribution
# ---------------------------------------------------------------------------

@dataclass
class ImportantQuery:
    """One query whose optimism measurably buys cycles, linked to the
    transform(s) it enables."""

    index: int
    cycles_saved: float          # flip delta at discovery
    percent_of_baseline: float
    issuing_pass: str = "?"
    function: str = "?"
    fingerprint: str = ""
    #: rendered remarks of transforms this query's answer enabled
    remarks: List[str] = field(default_factory=list)

    def describe(self) -> str:
        saved = ("required (flip breaks verification)"
                 if math.isinf(self.cycles_saved)
                 else f"{self.cycles_saved:.0f} cycles "
                      f"({self.percent_of_baseline:.2f}% of baseline)")
        head = (f"q{self.index}: {saved} — asked by {self.issuing_pass} "
                f"in {self.function}")
        if self.remarks:
            return head + "\n" + "\n".join(f"    enables: {r}"
                                           for r in self.remarks)
        return head


def attribute_queries(config: BenchmarkConfig, compiler: Compiler,
                      full_sequence: DecisionSequence,
                      mining: MiningResult) -> List[ImportantQuery]:
    """Compile the full-safe sequence once with tracing and link every
    important index to its issuing pass, enclosing function, pointer
    fingerprint, and the remarks its answer enabled."""
    from ..trace import QueryTrace

    trace = QueryTrace()
    compiler.compile(config, sequence=full_sequence, oraql_enabled=True,
                     trace=trace).release()  # the trace is what we read
    unique: Dict[int, dict] = {}
    enabling: Dict[int, List[str]] = {}
    from ..trace import events as ev
    for rec in trace.records:
        if ev.is_oraql_query(rec) and not rec.get("cached"):
            unique.setdefault(rec["index"], rec)
        elif rec.get("t") == "r":
            for q in rec.get("queries", ()):
                enabling.setdefault(q, []).append(ev.render_remark(rec))
    out: List[ImportantQuery] = []
    base = mining.baseline_cycles or 1.0
    for index in mining.by_value():
        saved = mining.savings_by_query.get(index, 0.0)
        rec = unique.get(index, {})
        out.append(ImportantQuery(
            index=index,
            cycles_saved=saved,
            percent_of_baseline=(0.0 if math.isinf(saved)
                                 else 100.0 * saved / base),
            issuing_pass=rec.get("pass", "?"),
            function=rec.get("function", "?"),
            fingerprint=rec.get("fp", ""),
            remarks=enabling.get(index, [])))
    return out


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@dataclass
class ImportanceReport:
    """Everything the importance driver learned about one config."""

    config_name: str
    strategy: str
    significant_percent: float
    recover_percent: float
    unique_queries: int = 0
    safe_queries: int = 0
    pessimistic_indices: List[int] = field(default_factory=list)
    baseline_cycles: float = 0.0
    optimal_cycles: float = 0.0
    important_cycles: float = 0.0
    threshold_cycles: float = 0.0
    important: List[ImportantQuery] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    pareto: List[ParetoPoint] = field(default_factory=list)
    refinement_rounds: int = 0
    flip_failures: int = 0
    # measurement effort
    compiles: int = 0
    measurements_run: int = 0
    measurements_cached: int = 0
    measurements_replayed: int = 0
    #: measurement budget ran out — best-known partial result
    partial: bool = False
    # strict cost-model bookkeeping (non-empty = distorted measurements)
    unknown_opcodes: Dict[str, int] = field(default_factory=dict)
    unknown_intrinsics: Dict[str, int] = field(default_factory=dict)
    #: the first-phase probing report this run built on
    probing: Optional[ProbingReport] = None

    @property
    def total_savings(self) -> float:
        return self.baseline_cycles - self.optimal_cycles

    @property
    def recovered_savings(self) -> float:
        return self.baseline_cycles - self.important_cycles

    @property
    def recovered_percent(self) -> float:
        if self.total_savings <= 0:
            return 100.0
        return 100.0 * self.recovered_savings / self.total_savings

    def summary(self) -> str:
        extra = ", PARTIAL (budget)" if self.partial else ""
        return (f"{self.config_name}: {len(self.important)} of "
                f"{self.safe_queries} safe queries are important "
                f"(>{self.significant_percent:g}% of baseline cycles); "
                f"they recover {self.recovered_percent:.1f}% of the "
                f"{self.total_savings:.0f}-cycle optimism win "
                f"[{self.compiles} compiles, {self.measurements_run} "
                f"measured, {self.measurements_cached} cached{extra}]")


class ImportanceDriver:
    """Runs probing (phase 1) then importance mining (phase 2)."""

    def __init__(self, config: BenchmarkConfig,
                 strategy: str = "chunked",
                 significant_percent: float = 2.0,
                 recover_percent: float = 95.0,
                 max_tests: int = 10_000,
                 max_measurements: int = 2000,
                 compiler: Optional[Compiler] = None,
                 policy: Optional[ExecutorPolicy] = None,
                 verdict_cache: Optional[VerdictCache] = None,
                 journal_dir: Optional[str] = None,
                 resume: bool = False,
                 injector=None,
                 strict_cost: bool = True):
        if significant_percent < 0:
            raise ValueError("significant_percent must be >= 0")
        if not 0 < recover_percent <= 100:
            raise ValueError("recover_percent must be in (0, 100]")
        self.config = config
        self.strategy = strategy
        self.significant_percent = significant_percent
        self.recover_percent = recover_percent
        self.max_tests = max_tests
        self.max_measurements = max_measurements
        self.compiler = compiler or Compiler()
        self.policy = policy or ExecutorPolicy()
        self.verdict_cache = verdict_cache
        self.journal_dir = journal_dir
        self.resume = resume
        self.injector = injector
        self.cost_model = CostModel(strict=strict_cost)

    def _importance_journal(self) -> Optional[SessionJournal]:
        if self.journal_dir is None:
            return None
        import os
        fp = config_fingerprint(self.config)
        name = (f"{self.config.name}-{fp}-importance-"
                f"{self.strategy}.journal.jsonl")
        return SessionJournal(os.path.join(self.journal_dir, name), fp,
                              f"importance-{self.strategy}",
                              resume=self.resume)

    def run(self) -> ImportanceReport:
        report = ImportanceReport(self.config.name, self.strategy,
                                  self.significant_percent,
                                  self.recover_percent)

        # -- phase 1: the probing driver finds the safe optimistic set
        probing_journal = (SessionJournal.for_config(
            self.journal_dir, self.config, self.strategy,
            resume=self.resume, setup=self.compiler.replay_digest)
            if self.journal_dir else None)
        driver = ProbingDriver(self.config, compiler=self.compiler,
                               strategy=self.strategy,
                               max_tests=self.max_tests,
                               verdict_cache=self.verdict_cache,
                               policy=self.policy,
                               journal=probing_journal,
                               injector=self.injector)
        probing = driver.run()
        report.probing = probing
        if probing.budget_exhausted:
            raise ProbingError(
                "importance mining needs a completed probing phase, but "
                "the probing test budget ran out — raise --max-tests")
        n = probing.opt_unique + probing.pess_unique
        pess = set(probing.pessimistic_indices)
        safe = [i for i in range(n) if i not in pess]
        report.unique_queries = n
        report.safe_queries = len(safe)
        report.pessimistic_indices = sorted(pess)

        # -- phase 2: cycle-delta bisection of the safe set
        journal = self._importance_journal()
        executor = TestExecutor(self.compiler, policy=self.policy,
                                injector=self.injector)
        executor.begin_session()
        oracle = MeasuredCycleOracle(
            self.config, executor, driver.verifier, n,
            cost_model=self.cost_model, journal=journal,
            verdict_cache=self.verdict_cache,
            max_measurements=self.max_measurements)
        # the threshold is a fraction of *baseline* cycles, matching the
        # original driver's significant_percentage-of-runtime contract
        baseline = oracle.measure(frozenset()).cycles
        threshold = (self.significant_percent / 100.0) * baseline
        mining = mine_important(oracle, safe, threshold,
                                recover_percent=self.recover_percent)

        report.baseline_cycles = mining.baseline_cycles
        report.optimal_cycles = mining.optimal_cycles
        report.important_cycles = mining.important_cycles
        report.threshold_cycles = mining.threshold_cycles
        report.dropped = mining.dropped
        report.pareto = mining.pareto
        report.refinement_rounds = mining.refinement_rounds
        report.flip_failures = mining.flip_failures
        report.partial = mining.partial
        report.compiles = oracle.compiles
        report.measurements_run = oracle.measurements_run
        report.measurements_cached = oracle.measurements_cached
        report.measurements_replayed = oracle.measurements_replayed
        report.unknown_opcodes = dict(self.cost_model.unknown_opcodes)
        report.unknown_intrinsics = dict(self.cost_model.unknown_intrinsics)

        # -- phase 3: provenance attribution via the trace layer
        report.important = attribute_queries(
            self.config, self.compiler, probing.final_sequence, mining)

        if journal is not None and not report.partial:
            journal.record_done([q.index for q in report.important])
        return report
