"""Chunked prefix bisection (paper §IV-B, the winning strategy).

A 1:1 generator transcription of the pre-refactor
``ProbingDriver._probe_chunked`` — every ``self._test(X)`` became
``yield Probe(X)`` and nothing else moved, which is what the parity
goldens (``tests/goldens/strategy_probes_chunked.txt``) prove.
"""

from __future__ import annotations

from typing import List

from ..errors import ProbingError
from ..sequence import DecisionSequence
from .base import (
    TAIL_PAD, Probe, SearchGen, SearchState, Strategy, StrategyContext,
)


def chunked_search(state: SearchState, ctx: StrategyContext) -> SearchGen:
    """Left-to-right prefix fixing with binary search per dangerous
    query.  Exploits prefix stability: the k-th unique query depends
    only on the answers to queries 0..k-1.

    Shared with the frequency strategy, whose closing-sweep fallback
    delegates here via ``yield from``."""
    decided: List[int] = []  # final bits for the prefix
    while True:
        state.best = {i for i, b in enumerate(decided) if b == 0}
        state.pinned = set(state.best)
        # everything after the prefix optimistic
        t = yield Probe(DecisionSequence(decided))
        if t.ok:
            state.candidates = set()
            return {i for i, b in enumerate(decided) if b == 0}
        n = t.unique_queries
        state.candidates = set(range(len(decided), n))
        span = n - len(decided)
        if span <= 0:
            # the prefix itself fails: the most recent optimistic
            # decision is the culprit of an interaction — flip the
            # last optimistic bit (rare; keeps termination)
            for i in range(len(decided) - 1, -1, -1):
                if decided[i] == 1:
                    decided[i] = 0
                    break
            else:
                raise ProbingError(
                    "all-pessimistic sequence fails tests — the "
                    "benchmark does not verify even with every query "
                    "answered may-alias",
                    outcome=t,
                    explain=ctx.explain(t) if ctx.explain else None)
            continue

        # g(k): prefix + k optimistic + pessimistic tail
        def g_bits(k: int) -> List[int]:
            return decided + [1] * k + [0] * (span - k + TAIL_PAD)

        t = yield Probe(DecisionSequence(g_bits(span)))
        if t.ok:
            # the failure needed the optimistic tail beyond n; fix
            # this whole span optimistic and continue outward
            decided.extend([1] * span)
            continue
        # binary search the smallest k with g(k) == False;
        # g(0) == True because the all-pessimistic tail is the baseline
        lo, hi = 0, span  # g(lo)=True (invariant), g(hi)=False
        while hi - lo > 1:
            mid = (lo + hi) // 2
            t = yield Probe(DecisionSequence(g_bits(mid)))
            if t.ok:
                lo = mid
            else:
                hi = mid
                # the sibling [mid, old hi) need not be tested: the
                # parent fails and the left part alone already fails
                state.deduced += 1
        # the query at index len(decided)+hi-1 is dangerous in this
        # context: fix prefix as lo optimistic + that one pessimistic
        decided.extend([1] * lo)
        decided.append(0)


class ChunkedStrategy(Strategy):
    """The paper's chunked strategy behind the pluggable interface."""

    name = "chunked"

    def _search(self, ctx: StrategyContext) -> SearchGen:
        return (yield from chunked_search(self.state, ctx))
