"""The query-provenance trace sink.

A :class:`QueryTrace` is threaded through
:class:`~repro.passes.pass_manager.CompilationContext` (``ctx.trace``)
and from there into the AA chain and the ORAQL pass.  It records

* every alias query, tagged with the pass-context stack the pass
  manager maintains (so a query issued while Memory SSA is being built
  inside GVN keeps both attributions),
* optimization remarks the transformation passes emit when they commit
  a change, linked back to the ORAQL query indices observed during the
  legality window (:meth:`mark` / :meth:`remark`),
* per-compile boundaries, per-compile pass statistics, and the final
  pessimistic index set, and
* a hierarchical :class:`~repro.trace.timer.PhaseTimer`.

**Zero-cost contract**: tracing is off when ``ctx.trace is None`` —
every emission site guards on that, so a traced and an untraced compile
execute the same query stream and produce bit-identical executables.
The sink only *observes*; it never influences an answer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

from . import events as ev
from .timer import PhaseTimer


class QueryTrace:
    """Event sink + phase timer for one probing (or compile) session.

    ``record_events=False`` turns the sink into a timer-only shell,
    which is what parallel workers use: full event streams do not
    survive (or justify) pickling across process boundaries, but the
    phase timers merge cheaply.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 record_events: bool = True):
        self.timer = PhaseTimer(clock)
        self.record_events = record_events
        self.records: List[dict] = []
        #: the live pass-context stack of the currently bound
        #: CompilationContext (shared list, mutated by push/pop)
        self._stack: Sequence[str] = ()
        #: (index, optimistic) of ORAQL answers in the current compile,
        #: consumed by the remark machinery's mark/since protocol
        self._oraql_log: List[Tuple[int, bool]] = []
        self._compile_count = 0

    # -- wiring ------------------------------------------------------------
    def _emit(self, rec: dict) -> None:
        """Record one event.  The single funnel every record constructor
        goes through; streaming subclasses override it to also ship the
        record out (``repro.trace.stream``)."""
        self.records.append(rec)

    def bind_context(self, ctx) -> None:
        """Adopt ``ctx``'s live pass stack for event attribution."""
        self._stack = ctx.pass_stack

    def session(self, config_name: str, strategy: str) -> None:
        if self.record_events:
            self._emit(ev.meta_record(config_name, strategy))

    def begin_compile(self, label: str,
                      bits: Optional[Sequence[int]] = None) -> None:
        self._compile_count += 1
        self._oraql_log.clear()
        if self.record_events:
            self._emit(
                ev.compile_record(self._compile_count, label, bits))

    def replay(self, bits: Sequence[int], exe_hash: str) -> None:
        """A probe answer replay booked without compiling."""
        if self.record_events:
            self._emit(ev.replay_record(bits, exe_hash))

    # -- query events ------------------------------------------------------
    def _issuer(self) -> str:
        return self._stack[-1] if self._stack else "<none>"

    def chain_query(self, function: str, a, b, responder: str,
                    response: str) -> None:
        """A query resolved before (or without) the ORAQL pass."""
        if not self.record_events:
            return
        self._emit(ev.query_record(
            self._issuer(), self._stack, function,
            ev.pointer_fingerprint(a, b), responder, response))

    def oraql_query(self, function: str, a, b, optimistic: bool,
                    cached: bool, index: int) -> None:
        """A query the ORAQL pass answered (uniquely or from its cache)."""
        self._oraql_log.append((index, optimistic))
        if not self.record_events:
            return
        self._emit(ev.query_record(
            self._issuer(), self._stack, function,
            ev.pointer_fingerprint(a, b), ev.RESPONDER_ORAQL,
            "NoAlias" if optimistic else "MayAlias",
            cached=cached, index=index, optimistic=optimistic))

    def oraql_skip(self, function: str, a, b) -> None:
        """A query that reached the ORAQL pass but fell outside its
        probing scope (target filter, function/file restriction)."""
        if not self.record_events:
            return
        self._emit(ev.query_record(
            self._issuer(), self._stack, function,
            ev.pointer_fingerprint(a, b), ev.RESPONDER_NONE, "MayAlias"))

    # -- remarks -----------------------------------------------------------
    def mark(self) -> int:
        """Checkpoint the ORAQL answer log; pass the result to
        :meth:`remark` to link a transform to the answers that enabled
        it."""
        return len(self._oraql_log)

    def remark(self, pass_name: str, function: str, message: str,
               since: Optional[int] = None) -> None:
        queries: List[int] = []
        if since is not None:
            seen = set()
            for index, optimistic in self._oraql_log[since:]:
                if optimistic and index not in seen:
                    seen.add(index)
                    queries.append(index)
            queries.sort()
            if queries:
                message += (" because ORAQL said no-alias("
                            + ", ".join(f"q{i}" for i in queries) + ")")
        if self.record_events:
            self._emit(
                ev.remark_record(pass_name, function, message, queries))

    # -- per-compile bookkeeping -------------------------------------------
    def record_stats(self, stats) -> None:
        """Snapshot a compile's pass statistics into the stream (the raw
        material for Fig. 6-style tables from the trace alone)."""
        if not self.record_events:
            return
        for pass_name, stat, value in stats.rows():
            self._emit(ev.stat_record(pass_name, stat, value))

    def record_done(self, pessimistic_indices: Sequence[int]) -> None:
        if self.record_events:
            self._emit(ev.done_record(pessimistic_indices))

    # -- timing ------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        with self.timer.phase(name) as node:
            yield node

    # -- views -------------------------------------------------------------
    def remark_lines(self, label: Optional[str] = None) -> List[str]:
        """Rendered ``-Rpass``-style lines, optionally restricted to the
        compile(s) with the given label."""
        lines: List[str] = []
        for compile_label, records in ev.split_compiles(self.records):
            if label is not None and compile_label != label:
                continue
            lines.extend(ev.render_remark(r) for r in records
                         if r.get("t") == "r")
        return lines

    def query_records(self, label: Optional[str] = None) -> List[dict]:
        out: List[dict] = []
        for compile_label, records in ev.split_compiles(self.records):
            if label is not None and compile_label != label:
                continue
            out.extend(r for r in records if r.get("t") == "q")
        return out
