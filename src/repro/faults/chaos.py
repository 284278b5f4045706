"""Chaos mode: seeded fault-injection campaigns over probing sessions.

``python -m repro.fuzz --chaos`` proves the resilient probing runtime's
contract: **every injected fault is either recovered from or reported
with correct triage, and final reports under injection match fault-free
runs.**

Each injection is an independent, fully deterministic experiment:

1. pick a chaos workload and a bisection strategy (seeded);
2. run the session fault-free once per (workload, strategy) pair to
   learn the reference report *and* how many times each fault site is
   consulted (an empty :class:`~repro.faults.injector.FaultInjector`
   is a pure site counter);
3. plant one fault of the scheduled kind at a seeded site index that is
   guaranteed reachable, and run the session again — with a journal,
   resuming after injected session kills;
4. classify the experiment:

   * ``recovered`` — the session completed and its final report
     (pessimistic set, final executable hash, optimism flag) is
     identical to the fault-free reference;
   * ``reported``  — the session was correctly quarantined: the
     nondeterminism probe caught a verdict-flipping injection and the
     raised :class:`~repro.oraql.errors.FlakyConfigError` carries the
     triage class matching the injected fault;
   * ``failed``    — anything else (wrong final report, wrong triage,
     unrecovered crash).  A single failure fails the campaign.

Durability faults additionally assert that the torn file is still
*loadable* afterwards (corrupt records quarantined, not fatal).
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..oraql.cache import VerdictCache
from ..oraql.config import BenchmarkConfig, SourceFile
from ..oraql.driver import ProbingDriver, ProbingReport
from ..oraql.errors import FlakyConfigError, ProbingError
from ..oraql.executor import ExecutorPolicy
from ..oraql.journal import SessionJournal
from ..oraql.pool import run_seeds
from .injector import SITE_OF, FaultInjector, FaultSpec, SessionKilled

#: fault kinds a chaos campaign cycles through (``worker-kill`` is
#: exercised by the parallel-engine tests instead — it would take the
#: in-process chaos worker down with it)
DEFAULT_CHAOS_KINDS = (
    "compiler-error",
    "hang",
    "trap",
    "deadlock",
    "wrong-output",
    "session-kill",
    "cache-truncate",
    "journal-truncate",
)

#: injected run-fault kind -> triage class a correct report must carry
EXPECTED_TRIAGE = {
    "hang": "step-limit",
    "trap": "trapped",
    "deadlock": "deadlock",
    "wrong-output": "wrong-output",
}

#: small workloads with genuinely dangerous aliasing, so every session
#: performs a non-trivial bisection with probes to inject into
CHAOS_WORKLOADS: Dict[str, str] = {
    "overlap-pair": """
void scale_shift(double* dst, double* src, int n) {
  for (int i = 0; i < n; i++) { dst[i] = src[i] * 0.5 + 1.0; }
}
void combine(double* out, double* a, double* b, int n) {
  for (int i = 0; i < n; i++) { out[i] = a[i] * b[i]; }
}
int main() {
  double buf[64];
  double x[32]; double y[32]; double z[32];
  for (int i = 0; i < 64; i++) { buf[i] = i + 1.0; }
  for (int i = 0; i < 32; i++) { x[i] = i; y[i] = 32.0 - i; z[i] = 0.0; }
  combine(z, x, y, 32);
  scale_shift(buf + 1, buf, 60);
  double s1 = 0.0; double s2 = 0.0;
  for (int i = 0; i < 32; i++) { s1 = s1 + z[i]; }
  for (int i = 0; i < 64; i++) { s2 = s2 + buf[i] * i; }
  printf("z = %.6f\\nbuf = %.6f\\n", s1, s2);
  return 0;
}
""",
    "cell-pump": """
void pump(double* cell, double* arr, int n) {
  for (int i = 0; i < n; i++) { arr[i] = cell[0] + i; }
}
void touch(double* a, double* b) {
  double before = a[0];
  b[0] = before * 2.0;
  double after = a[0];
  a[1] = after - before;
}
int main() {
  double a[8]; double m[4];
  for (int i = 0; i < 8; i++) { a[i] = 1.0; }
  m[0] = 3.0; m[1] = 0.0;
  pump(a + 3, a, 8);
  touch(m, m);
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s = s + a[i] * (i + 1); }
  printf("%.2f %.1f\\n", s, m[1]);
  return 0;
}
""",
}

STRATEGIES = ("chunked", "frequency")

#: a session may be killed and resumed at most this many times before
#: the experiment counts as failed (one planted kill fires once, so
#: anything above 1 resume would be a resume-determinism bug)
MAX_RESUMES = 3


@dataclass
class ChaosOptions:
    injections: int = 64
    seed_start: int = 0
    jobs: int = 1
    kinds: Tuple[str, ...] = DEFAULT_CHAOS_KINDS
    time_budget: Optional[float] = None


@dataclass
class InjectionResult:
    seed: int
    workload: str
    strategy: str
    kind: str
    at: int
    #: "recovered" | "reported" | "failed"
    outcome: str
    detail: str = ""
    resumes: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome in ("recovered", "reported")


@dataclass
class ChaosReport:
    options: ChaosOptions
    results: List[InjectionResult] = field(default_factory=list)
    budget_exhausted: bool = False
    elapsed: float = 0.0

    @property
    def failures(self) -> List[InjectionResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and bool(self.results)

    def render(self) -> str:
        o = self.options
        out = [f"== chaos campaign: {len(self.results)}/{o.injections} "
               f"injections (start {o.seed_start}, jobs {o.jobs}) "
               f"in {self.elapsed:.1f}s =="]
        if self.budget_exhausted:
            out.append("TIME BUDGET EXHAUSTED — partial campaign")
        by_kind: Dict[str, Dict[str, int]] = {}
        for r in self.results:
            counts = by_kind.setdefault(r.kind, {})
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        for kind in sorted(by_kind):
            counts = by_kind[kind]
            line = ", ".join(f"{n} {outcome}" for outcome, n in
                             sorted(counts.items()))
            out.append(f"  {kind:<18} {line}")
        resumes = sum(r.resumes for r in self.results)
        if resumes:
            out.append(f"journal resumes    : {resumes} killed sessions "
                       f"resumed bit-identically")
        out.append(f"unrecovered        : {len(self.failures)} injections")
        for r in self.failures:
            out.append(f"  seed {r.seed}: {r.kind}@{r.at} on "
                       f"{r.workload}/{r.strategy}: {r.detail}")
        return "\n".join(out)


def _workload_config(name: str) -> BenchmarkConfig:
    return BenchmarkConfig(name=f"chaos-{name}",
                           sources=[SourceFile("t.c",
                                               CHAOS_WORKLOADS[name])])


#: per-process cache of fault-free reference sessions:
#: (workload, strategy) -> (report, site counters)
_REFERENCE_CACHE: Dict[Tuple[str, str],
                       Tuple[ProbingReport, Dict[str, int]]] = {}


def _reference(workload: str, strategy: str
               ) -> Tuple[ProbingReport, Dict[str, int]]:
    key = (workload, strategy)
    if key not in _REFERENCE_CACHE:
        counter = FaultInjector()  # empty plan: pure site counter
        report = ProbingDriver(_workload_config(workload),
                               strategy=strategy,
                               policy=ExecutorPolicy(backoff=0.0),
                               injector=counter).run()
        _REFERENCE_CACHE[key] = (report, dict(counter.counters))
    return _REFERENCE_CACHE[key]


def _reports_match(ref: ProbingReport, got: ProbingReport) -> Optional[str]:
    """None when the injected session's final report matches the
    fault-free reference; otherwise a human-readable mismatch."""
    if got.fully_optimistic != ref.fully_optimistic:
        return (f"fully_optimistic {got.fully_optimistic} != "
                f"{ref.fully_optimistic}")
    if got.pessimistic_indices != ref.pessimistic_indices:
        return (f"pessimistic set {got.pessimistic_indices} != "
                f"{ref.pessimistic_indices}")
    ref_hash = ref.final_program.exe_hash if ref.final_program else None
    got_hash = got.final_program.exe_hash if got.final_program else None
    if ref_hash != got_hash:
        return f"final exe hash {got_hash} != {ref_hash}"
    return None


def run_injection(seed: int, opts: ChaosOptions) -> InjectionResult:
    """One deterministic chaos experiment (worker-side entry point)."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    workload = rng.choice(sorted(CHAOS_WORKLOADS))
    strategy = rng.choice(STRATEGIES)
    kind = opts.kinds[(seed - opts.seed_start) % len(opts.kinds)]
    ref, spans = _reference(workload, strategy)
    at = rng.randrange(max(1, spans.get(SITE_OF[kind], 1)))
    result = InjectionResult(seed=seed, workload=workload,
                             strategy=strategy, kind=kind, at=at,
                             outcome="failed")

    cfg = _workload_config(workload)
    spec = FaultSpec(kind=kind, at=at)
    injector = FaultInjector([spec])
    policy = ExecutorPolicy(backoff=0.0, nondet_probe="always", retries=2)
    with tempfile.TemporaryDirectory(prefix="oraql-chaos-") as tmp:
        cache = (VerdictCache(os.path.join(tmp, "cache"))
                 if kind == "cache-truncate" else None)
        resumes = 0
        while True:
            journal = SessionJournal.for_config(
                os.path.join(tmp, "journal"), cfg, strategy,
                resume=resumes > 0)
            driver = ProbingDriver(cfg, strategy=strategy,
                                   verdict_cache=cache, journal=journal,
                                   injector=injector, policy=policy)
            try:
                report = driver.run()
            except SessionKilled:
                resumes += 1
                if resumes > MAX_RESUMES:
                    result.detail = (f"session killed {resumes} times — "
                                     f"resume did not converge")
                    break
                continue
            except FlakyConfigError as e:
                expected = EXPECTED_TRIAGE.get(kind)
                if expected is not None and e.triage == expected:
                    result.outcome = "reported"
                    result.detail = (f"quarantined with triage "
                                     f"{e.triage}")
                else:
                    result.detail = (f"quarantined with triage "
                                     f"{e.triage}, expected {expected}")
                break
            except ProbingError as e:
                result.detail = f"unexpected ProbingError: {e}"
                break
            mismatch = _reports_match(ref, report)
            if mismatch is not None:
                result.detail = f"report mismatch: {mismatch}"
                break
            if not spec.fired:
                result.detail = (f"planned fault never fired "
                                 f"(site span changed?)")
                break
            # durability faults: the torn file must still be loadable,
            # with the damage quarantined rather than fatal
            if kind == "journal-truncate":
                reload = SessionJournal.for_config(
                    os.path.join(tmp, "journal"), cfg, strategy,
                    resume=True)
                result.detail = (f"journal reloads with "
                                 f"{reload.corrupt_records} quarantined "
                                 f"record(s)")
            elif kind == "cache-truncate":
                reload_cache = VerdictCache(os.path.join(tmp, "cache"))
                result.detail = (f"cache reloads with "
                                 f"{reload_cache.corrupt_records} "
                                 f"quarantined record(s)")
            result.outcome = "recovered"
            break
        result.resumes = resumes
    result.elapsed = time.monotonic() - t0
    return result


def run_chaos(opts: ChaosOptions, progress=None) -> ChaosReport:
    """Run the campaign, optionally fanning injections out to workers."""
    t0 = time.monotonic()
    report = ChaosReport(options=opts)
    seeds = range(opts.seed_start, opts.seed_start + opts.injections)
    report.results, report.budget_exhausted = run_seeds(
        run_injection, seeds, opts, opts.jobs, opts.time_budget, progress)
    report.elapsed = time.monotonic() - t0
    return report
