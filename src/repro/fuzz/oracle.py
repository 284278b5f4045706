"""The multi-configuration differential oracle.

One generated program is compiled under a matrix of configurations and
the outputs are compared against the O0 interpretation, which performs
no transformation and therefore serves as the semantic reference:

========================  =====================================================
key                       what it checks
========================  =====================================================
``o2`` / ``o3``           the plain pipeline may only get faster, never
                          different (classic differential compiler testing)
``o3-coarse``             fine-grained analysis invalidation must be
                          behaviour- *and bit*-identical to coarse (the PR-2
                          contract: same stdout **and** same ``exe_hash``)
``override``              forcing every chain answer pessimistic (§VIII) is
                          always sound — must match O0
``pessimistic``           ORAQL answering **every** last-resort query
                          may-alias must match O0 (the paper's soundness
                          anchor: pessimism never changes behaviour)
``optimistic``            ORAQL answering everything no-alias *may* diverge —
                          but then the probing driver's bisection must catch
                          it: find a non-empty pessimistic set whose final
                          sequence verifies.  A divergence bisection cannot
                          explain is a finding, exactly like a pipeline
                          miscompile.
========================  =====================================================

Findings are classified ``miscompile`` (a config that must match O0
does not), ``unsound-optimism-uncaught`` (optimistic divergence the
driver fails to pin down), or ``invalidation-hash`` (fine vs. coarse
hash split).  ``optimism-hazard`` results — optimistic divergence
correctly caught by bisection — are *expected* behaviour and reported
separately (they are what the self-test forces, see
:mod:`repro.fuzz.campaign`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..oraql.cache import VerdictCache, config_fingerprint
from ..oraql.compiler import CompiledProgram, Compiler
from ..oraql.config import BenchmarkConfig, SourceFile
from ..oraql.driver import ProbingDriver, ProbingReport
from ..oraql.sequence import DecisionSequence

#: pessimistic-tail padding past the observed unique-query count (the
#: stream can grow when answers flip; mirrors ProbingDriver.TAIL_PAD)
TAIL_PAD = 8

#: matrix keys whose output must be bit-identical to the O0 reference
MUST_MATCH = ("o2", "o3", "o3-coarse", "override", "pessimistic")


@dataclass
class OracleFinding:
    """One rule violation: the seed is a bug reproducer."""

    kind: str                  # "miscompile" | "unsound-optimism-uncaught"
    #                          # | "invalidation-hash" | "reference-failure"
    config_key: str
    detail: str


@dataclass
class OracleResult:
    seed: int
    source: str
    reference_output: str = ""
    #: per-config outcome: "match" | "divergent" | "trapped"
    outcomes: Dict[str, str] = field(default_factory=dict)
    findings: List[OracleFinding] = field(default_factory=list)
    #: the optimistic run diverged and bisection explained it
    optimism_divergent: bool = False
    #: bisection result when the optimistic run diverged
    pessimistic_indices: List[int] = field(default_factory=list)
    unique_queries: int = 0
    compiles: int = 0
    tests_run: int = 0
    cache_hits: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def base_config(seed: int, source: str, opt_level: int = 3,
                max_steps: int = 4_000_000) -> BenchmarkConfig:
    return BenchmarkConfig(name=f"fuzz-{seed}",
                           sources=[SourceFile("fuzz.c", source)],
                           opt_level=opt_level, max_steps=max_steps)


class DifferentialOracle:
    """Applies the config matrix to one program and classifies the outcome.

    A :class:`~repro.oraql.cache.VerdictCache` may be shared with the
    probing drivers this oracle spawns: the oracle seeds it with the
    optimistic run's verdict and answer log, so the driver's step 2 (the
    empty-sequence attempt) is replayed instead of recompiled."""

    def __init__(self, compiler: Optional[Compiler] = None,
                 verdict_cache: Optional[VerdictCache] = None,
                 opt_level: int = 3,
                 max_tests: int = 2_000,
                 strategies: Sequence[str] = ("chunked",)):
        self.compiler = compiler or Compiler()
        self.verdict_cache = verdict_cache
        self.opt_level = opt_level
        self.max_tests = max_tests
        #: probing strategies the bisection referee runs; the first is
        #: the primary (its pessimistic set is the reported answer),
        #: the rest are cross-checked against it per divergent case
        self.strategies = list(strategies) or ["chunked"]

    # -- single compile+run -------------------------------------------------
    def _run(self, result: OracleResult, config: BenchmarkConfig,
             **compile_kw):
        result.compiles += 1
        prog = self.compiler.compile(config, **compile_kw)
        return prog, prog.run()

    # -- the oracle ---------------------------------------------------------
    def check(self, seed: int, source: str,
              bisect_divergence: bool = True) -> OracleResult:
        result = OracleResult(seed=seed, source=source)
        cfg = base_config(seed, source, self.opt_level)

        # 0. the reference: O0 interpretation.  A failure here is a
        # generator bug (or frontend/VM crash) — a finding of its own.
        _, ref_run = self._run(result, dataclasses.replace(cfg, opt_level=0))
        if not ref_run.ok:
            result.outcomes["o0"] = "trapped"
            result.findings.append(OracleFinding(
                "reference-failure", "o0",
                f"O0 run failed: {ref_run.state} ({ref_run.error})"))
            return result
        result.outcomes["o0"] = "match"
        result.reference_output = ref_run.stdout

        def judge(key: str, run, must_match: bool = True) -> bool:
            if not run.ok:
                result.outcomes[key] = "trapped"
            elif run.stdout == result.reference_output:
                result.outcomes[key] = "match"
                return True
            else:
                result.outcomes[key] = "divergent"
            if must_match:
                detail = (f"{run.state}: {run.error}" if not run.ok else
                          _first_diff(result.reference_output, run.stdout))
                result.findings.append(
                    OracleFinding("miscompile", key, detail))
            return False

        # 1. the plain pipeline, O2 and O3
        judge("o2", self._run(result, dataclasses.replace(cfg, opt_level=2))[1])
        o3, o3_run = self._run(result, cfg)
        judge("o3", o3_run)

        # 2. fine vs. coarse invalidation: same behaviour, same bits
        coarse, coarse_run = self._run(result, cfg, invalidation="coarse")
        judge("o3-coarse", coarse_run)
        if coarse.exe_hash != o3.exe_hash:
            result.outcomes["o3-coarse"] = "divergent"
            result.findings.append(OracleFinding(
                "invalidation-hash", "o3-coarse",
                f"fine {o3.exe_hash[:12]} != coarse {coarse.exe_hash[:12]}"))

        # 3. override mode: chain forced pessimistic (§VIII)
        judge("override", self._run(result, cfg, suppress_chain=True)[1])

        # 4. ORAQL all-optimistic (the empty sequence)
        opt, opt_run = self._run(result, cfg, sequence=DecisionSequence(),
                                 oraql_enabled=True)
        result.unique_queries = opt.oraql.unique_queries
        opt_matches = judge("optimistic", opt_run, must_match=False)

        # 5. ORAQL all-pessimistic: zeros covering the whole stream
        n = opt.oraql.unique_queries + TAIL_PAD
        judge("pessimistic", self._run(
            result, cfg, sequence=DecisionSequence([0] * n),
            oraql_enabled=True)[1])

        # 6. an optimistic divergence must be caught by bisection
        if not opt_matches:
            result.optimism_divergent = True
            if bisect_divergence:
                self._bisect(result, cfg, opt)
        return result

    def _bisect(self, result: OracleResult, cfg: BenchmarkConfig,
                opt: CompiledProgram) -> None:
        probe_cfg = dataclasses.replace(
            cfg, reference_outputs=[result.reference_output])
        if self.verdict_cache is not None:
            # seed the cache with the verdict and the answer log we
            # already know, so the driver's empty-sequence attempt is
            # replayed instead of recompiled
            fp = config_fingerprint(probe_cfg)
            self.verdict_cache.put(VerdictCache.key(fp, opt.exe_hash), False)
            self.verdict_cache.put_answers(
                VerdictCache.answer_key(fp, self.compiler.replay_digest),
                (opt.oraql.unique_queries, frozenset()), opt.exe_hash)
        driver = ProbingDriver(probe_cfg, compiler=self.compiler,
                               strategy=self.strategies[0],
                               max_tests=self.max_tests,
                               verdict_cache=self.verdict_cache)
        try:
            report: ProbingReport = driver.run()
        except Exception as e:  # driver blow-up = uncaught divergence
            result.findings.append(OracleFinding(
                "unsound-optimism-uncaught", "optimistic",
                f"probing driver failed: {e}"))
            return
        result.tests_run += report.tests_run
        result.cache_hits += report.cache_hits
        result.compiles += report.compiles
        if report.fully_optimistic or not report.pessimistic_indices \
                or report.budget_exhausted:
            result.findings.append(OracleFinding(
                "unsound-optimism-uncaught", "optimistic",
                f"divergent run but bisection reported "
                f"fully_optimistic={report.fully_optimistic} "
                f"pessimistic={report.pessimistic_indices} "
                f"budget_exhausted={report.budget_exhausted}"))
            return
        result.pessimistic_indices = list(report.pessimistic_indices)
        self._cross_check_strategies(result, probe_cfg, report)

    #: strategies that share the chunked skeleton and must therefore
    #: land on the primary's exact pessimistic set; frequency explores a
    #: different search space and may legally pin a *different*
    #: locally-maximal set, so it is held to validity, not equality
    EXACT_STRATEGIES = frozenset({"chunked", "provenance-prior"})

    def _cross_check_strategies(self, result: OracleResult,
                                probe_cfg: BenchmarkConfig,
                                primary: ProbingReport) -> None:
        """Re-bisect the divergence with every extra registered
        strategy: each must terminate on a verified non-empty
        pessimistic set, and the chunked-skeleton strategies must
        reproduce the primary's set bit for bit."""
        for strategy in self.strategies[1:]:
            key = f"strategy-{strategy}"
            try:
                rep = ProbingDriver(probe_cfg, compiler=self.compiler,
                                    strategy=strategy,
                                    max_tests=self.max_tests,
                                    verdict_cache=self.verdict_cache).run()
            except Exception as e:
                result.findings.append(OracleFinding(
                    "strategy-mismatch", key, f"driver failed: {e}"))
                continue
            result.tests_run += rep.tests_run
            result.cache_hits += rep.cache_hits
            result.compiles += rep.compiles
            if rep.fully_optimistic or not rep.pessimistic_indices \
                    or rep.budget_exhausted:
                result.findings.append(OracleFinding(
                    "strategy-mismatch", key,
                    f"divergent run but {strategy} reported "
                    f"fully_optimistic={rep.fully_optimistic} "
                    f"pessimistic={rep.pessimistic_indices} "
                    f"budget_exhausted={rep.budget_exhausted}"))
                continue
            exact = (strategy in self.EXACT_STRATEGIES
                     and self.strategies[0] in self.EXACT_STRATEGIES)
            if exact and rep.pessimistic_indices \
                    != primary.pessimistic_indices:
                result.findings.append(OracleFinding(
                    "strategy-mismatch", key,
                    f"{strategy} pinned {rep.pessimistic_indices}, "
                    f"{self.strategies[0]} pinned "
                    f"{primary.pessimistic_indices}"))
                continue
            result.outcomes[key] = (
                "match" if rep.pessimistic_indices
                == primary.pessimistic_indices else "valid")


def _first_diff(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            lo = max(0, i - 30)
            return (f"first diff at byte {i}: "
                    f"{a[lo:i + 30]!r} vs {b[lo:i + 30]!r}")
    return f"length {len(a)} vs {len(b)}"
