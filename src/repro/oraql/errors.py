"""Structured probing failures.

The driver used to raise bare ``RuntimeError`` strings; a failed
probing session then told the operator *that* something went wrong but
not *what the program did*.  :class:`ProbingError` carries the failing
:class:`~repro.oraql.executor.TestOutcome` (verdict + triage class) and
the verification script's :meth:`~repro.oraql.verify.VerificationScript.
explain` diff, so every failure is actionable.

Subclasses ``RuntimeError`` so existing ``except RuntimeError`` call
sites (and tests matching on the message) keep working.
"""

from __future__ import annotations

from typing import Optional


class ProbingError(RuntimeError):
    """A probing session failed in a structured, reportable way."""

    def __init__(self, message: str, outcome=None,
                 explain: Optional[str] = None,
                 triage: Optional[str] = None):
        self.outcome = outcome
        self.explain = explain
        self.triage = triage or (outcome.triage if outcome is not None
                                 else None)
        parts = [message]
        if self.triage:
            parts.append(f"[triage: {self.triage}]")
        if explain:
            parts.append(explain)
        super().__init__(" — ".join(parts))


class FlakyConfigError(ProbingError):
    """The nondeterminism probe saw the same executable produce two
    different verdicts: the configuration is quarantined instead of
    letting a flaky run mis-pin queries as dangerous."""


class JournalError(ProbingError):
    """The session journal cannot be used (header mismatch: the journal
    on disk belongs to a different config, strategy, or schema)."""


class ReleasedProgramError(ProbingError):
    """A program was run or decoded after :meth:`~repro.oraql.compiler.
    CompiledProgram.release` freed its IR and VM code."""
