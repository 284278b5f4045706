"""Fault-isolated test execution for the probing runtime.

The probing loop exists *because* optimistic no-alias answers can break
programs: a probed binary may print garbage, trap, deadlock, or loop
forever.  The :class:`TestExecutor` wraps one compile+run+verify
round-trip into a structured :class:`TestOutcome` so the driver always
learns *how* a test ended, not just whether it passed:

* every run is classified into a triage class
  (:data:`~repro.oraql.verify.TRIAGE_CLASSES`);
* per-test **fuel** (instruction budget) and **wall-clock** budgets are
  threaded down to the VM, so a runaway miscompile becomes a
  ``step-limit`` verdict instead of a hung driver;
* **transient infrastructure faults** (compiler exceptions) are retried
  with exponential backoff before the probe is declared lost;
* a **nondeterminism probe** re-runs a failing binary once — if the
  second run disagrees with the first, the configuration is flaky and
  must be quarantined (:class:`~repro.oraql.errors.FlakyConfigError`)
  instead of letting a coin-flip verdict mis-pin queries as dangerous;
* an optional :class:`~repro.faults.injector.FaultInjector` plants
  deterministic faults at exact probe indices — the proof machinery for
  all of the above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from ..faults.injector import (
    HANG_FUEL,
    FaultInjector,
    InjectedCompilerError,
    SessionKilled,
)
from .compiler import CompiledProgram, Compiler
from .config import BenchmarkConfig
from .errors import ProbingError
from .sequence import DecisionSequence
from .verify import (
    TRIAGE_COMPILER_ERROR,
    TRIAGE_OK,
    TRIAGE_WRONG_OUTPUT,
    RunResult,
    VerificationScript,
)


def is_transient_compiler_fault(exc: BaseException) -> bool:
    """Should this compiler exception be retried with backoff?

    Only *infrastructure* fault classes are transient: injected faults,
    OS-level failures (full disk, interrupted syscalls), resource
    exhaustion, and generic runtime faults.  Deterministic compiler
    failures — IR verifier errors, frontend parse/codegen errors, plain
    programming errors — will fail identically on every attempt, so
    retrying them only burns wall-clock and retry budget before the
    inevitable ``compiler-error`` triage.

    :class:`SessionKilled` and :class:`ProbingError` are neither: they
    must unwind to the session owner untouched.
    """
    if isinstance(exc, (SessionKilled, ProbingError)):
        return False
    if isinstance(exc, (InjectedCompilerError, OSError, MemoryError)):
        return True
    # a bare RuntimeError is the classic transient-infrastructure shape
    # (and what the fault-injection harness's stand-ins raise); its
    # deterministic subclasses were excluded above
    return type(exc) is RuntimeError


@dataclass
class TestOutcome:
    """One probe's verdict, enriched with how the run actually ended."""

    __test__ = False  # despite the name, not a pytest collection target

    ok: bool
    unique_queries: int
    exe_hash: str
    from_cache: bool = False
    #: one of :data:`~repro.oraql.verify.TRIAGE_CLASSES`; derived from
    #: ``ok`` when the caller has nothing better (cache hits)
    triage: Optional[str] = None
    #: VM runs this verdict consumed (> 1 when the nondeterminism probe
    #: re-ran a mismatch)
    attempts: int = 1
    #: the two runs of the nondeterminism probe disagreed — the verdict
    #: is untrustworthy and the config must be quarantined
    flaky: bool = False
    #: the (first) observed run, for ``explain()`` diffs; ``None`` for
    #: cached verdicts
    run: Optional[RunResult] = None

    def __post_init__(self) -> None:
        if self.triage is None:
            self.triage = TRIAGE_OK if self.ok else TRIAGE_WRONG_OUTPUT


@dataclass
class ExecutorPolicy:
    """Per-test budgets and fault-handling knobs."""

    #: instruction budget per run (None = the config's ``max_steps``)
    fuel: Optional[int] = None
    #: wall-clock budget per run in seconds (None = unbounded; leaves
    #: runs bit-deterministic)
    wall_clock: Optional[float] = None
    #: extra attempts for transient faults (compiler exceptions)
    retries: int = 2
    #: base backoff between retries in seconds (doubles per attempt;
    #: 0 in tests)
    backoff: float = 0.05
    #: when to re-run a failing binary to detect nondeterminism:
    #: ``first`` probes the first mismatch of the session (cheap),
    #: ``always`` probes every mismatch, ``never`` disables the probe
    nondet_probe: str = "first"

    def __post_init__(self) -> None:
        if self.nondet_probe not in ("first", "always", "never"):
            raise ValueError(
                f"unknown nondet_probe policy {self.nondet_probe!r}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


class TestExecutor:
    """Compiles and executes candidate binaries with fault isolation.

    Owned by one :class:`~repro.oraql.driver.ProbingDriver`; its
    counters (``retries_used``, ``nondet_reruns``) feed the report.
    """

    __test__ = False  # despite the name, not a pytest collection target

    def __init__(self, compiler: Optional[Compiler] = None,
                 policy: Optional[ExecutorPolicy] = None,
                 injector: Optional[FaultInjector] = None,
                 trace=None):
        self.compiler = compiler or Compiler()
        self.policy = policy or ExecutorPolicy()
        self.injector = injector
        self.trace = trace
        self.retries_used = 0
        self.nondet_reruns = 0
        self._probed_mismatch = False

    def begin_session(self) -> None:
        """Reset per-session counters and probe state.

        An executor reused across drivers (repeated-driver scenarios,
        one executor probing several configs) must not bleed one
        config's retry/nondet bookkeeping — or its already-probed-a-
        mismatch latch — into the next report."""
        self.retries_used = 0
        self.nondet_reruns = 0
        self._probed_mismatch = False

    # -- fault sites -------------------------------------------------------
    def begin_test(self) -> None:
        """Poll the per-probe fault site (session kills, worker kills,
        durability-file truncation).  Called once per driver probe."""
        if self.injector is None:
            return
        spec = self.injector.poll("test")
        if spec is not None:
            self.injector.apply_process_fault(spec)

    # -- compilation with retry-on-transient -------------------------------
    def compile(self, config: BenchmarkConfig,
                sequence: Optional[DecisionSequence],
                oraql_enabled: bool = True) -> CompiledProgram:
        """Compile, retrying *transient* compiler faults with backoff.

        A compiler exception is an *infrastructure* failure, never a
        test verdict: it surfaces as a :class:`ProbingError` with
        ``compiler-error`` triage.  Only transient fault classes
        (:func:`is_transient_compiler_fault`) consume the retry budget —
        a deterministic failure (IR verifier error, frontend error)
        fails identically every time, so it is raised for triage
        immediately instead of wasting ``retries`` backoff rounds."""
        attempt = 0
        while True:
            try:
                if self.injector is not None:
                    spec = self.injector.poll("compile")
                    if spec is not None and spec.kind == "compiler-error":
                        raise InjectedCompilerError(
                            f"injected compiler fault at compile #{spec.at}")
                return self.compiler.compile(config, sequence=sequence,
                                             oraql_enabled=oraql_enabled,
                                             trace=self.trace)
            except (SessionKilled, ProbingError):
                raise  # not compiler faults: unwind to the session owner
            except Exception as e:
                attempt += 1
                if not is_transient_compiler_fault(e) \
                        or attempt > self.policy.retries:
                    raise ProbingError(
                        f"compilation failed after {attempt} attempt(s)",
                        triage=TRIAGE_COMPILER_ERROR,
                        explain=f"{type(e).__name__}: {e}") from e
                self.retries_used += 1
                if self.policy.backoff > 0:
                    time.sleep(self.policy.backoff * (2 ** (attempt - 1)))

    # -- execution + verification ------------------------------------------
    def _run_once(self, prog: CompiledProgram) -> RunResult:
        if self.injector is not None:
            spec = self.injector.poll("run")
            if spec is not None:
                if spec.kind == "hang":
                    # a genuinely runaway run: tiny fuel trips the VM's
                    # real step-limit machinery
                    return prog.run(fuel=HANG_FUEL,
                                    wall_clock=self.policy.wall_clock)
                if spec.kind == "trap":
                    return RunResult("", "trapped",
                                     f"injected memory trap at run "
                                     f"#{spec.at}", error_kind="MemoryTrap")
                if spec.kind == "deadlock":
                    return RunResult("", "trapped",
                                     f"injected deadlock at run #{spec.at}",
                                     error_kind="DeadlockError")
                if spec.kind == "wrong-output":
                    r = prog.run(fuel=self.policy.fuel,
                                 wall_clock=self.policy.wall_clock)
                    if r.ok:
                        return replace(r, stdout=r.stdout
                                       + "<injected corruption>\n")
                    return r
        return prog.run(fuel=self.policy.fuel,
                        wall_clock=self.policy.wall_clock)

    def _should_probe_mismatch(self) -> bool:
        mode = self.policy.nondet_probe
        if mode == "always":
            return True
        return mode == "first" and not self._probed_mismatch

    def run_and_verify(self, prog: CompiledProgram,
                       verifier: VerificationScript) -> TestOutcome:
        """Run the program, verify, triage — and on a mismatch, re-run
        once to tell deterministic miscompiles from flaky configs."""
        r1 = self._run_once(prog)
        ok1 = verifier.check(r1)
        triage = verifier.triage(r1)
        attempts = 1
        n = prog.oraql.unique_queries if prog.oraql is not None else 0
        if not ok1 and self._should_probe_mismatch():
            self._probed_mismatch = True
            self.nondet_reruns += 1
            r2 = self._run_once(prog)
            ok2 = verifier.check(r2)
            attempts = 2
            if ok2 != ok1:
                return TestOutcome(ok2, n, prog.exe_hash, triage=triage,
                                   attempts=attempts, flaky=True, run=r1)
        return TestOutcome(ok1, n, prog.exe_hash, triage=triage,
                           attempts=attempts, run=r1)
