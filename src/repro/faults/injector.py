"""Deterministic, seed-driven fault injection.

The resilient probing runtime claims it survives compiler exceptions,
hung or trapping binaries, killed workers, interrupted sessions, and
torn durability files.  This module is the *proof machinery*: a
:class:`FaultInjector` is threaded through the
:class:`~repro.oraql.executor.TestExecutor` (and through the parallel
engine's worker entry points) and fires planned faults at exact,
reproducible points of a probing session.

Sites and kinds
---------------
Every consultation point is a **site** with its own monotonically
increasing counter:

* ``compile`` — polled once per compiler invocation;
* ``run``     — polled once per VM execution of a candidate binary;
* ``test``    — polled once per probe (one compile+verdict round-trip).

A :class:`FaultSpec` names a fault ``kind``, the site index ``at`` at
which it fires, and (for the parallel engine) the worker ``attempt`` it
is armed for.  Kinds:

=================  ======  ==============================================
kind               site    effect
=================  ======  ==============================================
``compiler-error`` compile raise :class:`InjectedCompilerError` (a
                           transient infrastructure fault; the executor
                           retries with backoff)
``hang``           run     run the binary with a tiny fuel budget so it
                           genuinely hits the VM's step limit
``trap``           run     replace the run result with a memory trap
``deadlock``       run     replace the run result with a deadlock
``wrong-output``   run     corrupt the observed stdout
``session-kill``   test    raise :class:`SessionKilled` — models the
                           driver process dying mid-session (the chaos
                           harness resumes from the journal)
``worker-kill``    test    ``os._exit`` the current process — models a
                           crashed pool worker (parent must requeue)
``cache-truncate`` test    chop bytes off the shared verdict cache file
``journal-truncate`` test  chop bytes off the session journal file
=================  ======  ==============================================

Determinism: the plan is a pure function of its seed
(:meth:`FaultInjector.plan_from_seed`), the site counters advance
identically on identical probing sessions, and each spec fires at most
once.  No wall clocks, no global randomness.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

FAULT_KINDS = (
    "compiler-error",
    "hang",
    "trap",
    "deadlock",
    "wrong-output",
    "session-kill",
    "worker-kill",
    "cache-truncate",
    "journal-truncate",
)

#: which site each fault kind is polled at
SITE_OF = {
    "compiler-error": "compile",
    "hang": "run",
    "trap": "run",
    "deadlock": "run",
    "wrong-output": "run",
    "session-kill": "test",
    "worker-kill": "test",
    "cache-truncate": "test",
    "journal-truncate": "test",
}

#: fuel handed to a run the ``hang`` fault fires on — small enough that
#: every real workload trips the step limit, so the *genuine* VM budget
#: path is exercised rather than a fabricated result
HANG_FUEL = 64


class InjectedCompilerError(RuntimeError):
    """A planned, transient compiler crash."""


class SessionKilled(RuntimeError):
    """A planned mid-session death of the probing driver.

    Deliberately *not* a :class:`~repro.oraql.errors.ProbingError`: the
    driver must not convert it into a verdict — it unwinds to whoever
    owns the session (the chaos harness, or a real crash)."""


@dataclass
class FaultSpec:
    kind: str
    #: fire at the ``at``-th consultation of this kind's site (0-based)
    at: int
    #: parallel engine only: arm on this worker attempt (a killed worker
    #: is requeued; the retry must not die at the same index forever)
    attempt: int = 0
    fired: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SITE_OF:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def site(self) -> str:
        return SITE_OF[self.kind]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at": self.at, "attempt": self.attempt}

    @staticmethod
    def from_dict(d: dict) -> "FaultSpec":
        return FaultSpec(kind=d["kind"], at=int(d["at"]),
                         attempt=int(d.get("attempt", 0)))


class FaultInjector:
    """Polls a fault plan at deterministic sites.

    ``attempt`` selects which specs are armed (see
    :attr:`FaultSpec.attempt`); an injector with an empty plan is a
    pure site-counter, which the chaos harness uses to measure how many
    consultations a fault-free session performs.
    """

    def __init__(self, plan: Sequence[FaultSpec] = (), attempt: int = 0):
        self.plan: List[FaultSpec] = list(plan)
        self.attempt = attempt
        self.counters: Dict[str, int] = {"compile": 0, "run": 0, "test": 0}
        #: specs that actually fired, in firing order
        self.fired: List[FaultSpec] = []
        #: file paths the durability faults operate on (bound late by
        #: the session owner; unbound faults fire as no-ops)
        self.cache_path: Optional[str] = None
        self.journal_path: Optional[str] = None

    # -- plan construction ------------------------------------------------
    @staticmethod
    def plan_from_seed(seed: int, kinds: Sequence[str],
                       site_spans: Dict[str, int]) -> List[FaultSpec]:
        """One spec per requested kind, with the firing index drawn
        uniformly from ``[0, site_spans[site])`` — the span is the
        number of consultations a fault-free session performs, so every
        planned fault is reachable."""
        rng = random.Random(seed)
        plan: List[FaultSpec] = []
        for kind in kinds:
            span = max(1, site_spans.get(SITE_OF[kind], 1))
            plan.append(FaultSpec(kind=kind, at=rng.randrange(span)))
        return plan

    def to_json_plan(self) -> List[dict]:
        return [s.to_dict() for s in self.plan]

    @staticmethod
    def from_json_plan(plan: Optional[Sequence[dict]],
                       attempt: int = 0) -> Optional["FaultInjector"]:
        if not plan:
            return None
        return FaultInjector([FaultSpec.from_dict(d) for d in plan],
                             attempt=attempt)

    # -- polling -----------------------------------------------------------
    def poll(self, site: str) -> Optional[FaultSpec]:
        """Advance the site counter; return the spec planned for this
        exact consultation, if any (and mark it fired)."""
        index = self.counters[site]
        self.counters[site] = index + 1
        for spec in self.plan:
            if (not spec.fired and spec.site == site
                    and spec.at == index and spec.attempt == self.attempt):
                spec.fired = True
                self.fired.append(spec)
                return spec
        return None

    # -- effects owned by the injector (durability + process faults) -------
    def apply_process_fault(self, spec: FaultSpec) -> None:
        """Fire a ``test``-site fault.  Raises, exits, or truncates."""
        if spec.kind == "session-kill":
            raise SessionKilled(
                f"injected session kill at test #{spec.at}")
        if spec.kind == "worker-kill":
            os._exit(39)
        if spec.kind == "cache-truncate":
            _truncate_tail(self.cache_path)
        elif spec.kind == "journal-truncate":
            _truncate_tail(self.journal_path)


def _truncate_tail(path: Optional[str], chop: int = 7) -> None:
    """Chop ``chop`` bytes off the end of ``path``, tearing the final
    record mid-line the way a crash mid-append would."""
    if path is None or not os.path.exists(path):
        return
    size = os.path.getsize(path)
    if size == 0:
        return
    with open(path, "r+b") as f:
        f.truncate(max(0, size - chop))
