"""Frequency-space residue-class bisection (paper §IV-B).

A 1:1 generator transcription of the pre-refactor
``ProbingDriver._probe_frequency`` (parity golden:
``tests/goldens/strategy_probes_frequency.txt``).  The closing-sweep
fallback delegates to the chunked search via ``yield from``, exactly as
the original called ``self._probe_chunked``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

from ..sequence import sequence_from_pessimistic_set
from ..sequence import DecisionSequence
from .base import TAIL_PAD, Probe, SearchGen, Strategy, StrategyContext
from .chunked import chunked_search


class FrequencyStrategy(Strategy):
    """Residue-class bisection (paper's first strategy).

    A class is (modulus, residue).  Greedily grow the accepted
    optimistic set: test accepted ∪ candidate-class; on failure split
    the class by doubling the modulus; a failing singleton is a
    dangerous query, answered pessimistically."""

    name = "frequency"

    def _search(self, ctx: StrategyContext) -> SearchGen:
        state = self.state
        # length estimate grows as pessimistic answers change the stream
        n_est = max(ctx.first.unique_queries, 1)

        def indices_of(mod: int, res: int, n: int) -> List[int]:
            return list(range(res, n, mod))

        accepted: Set[int] = set()      # optimistic indices
        dangerous: Set[int] = set()

        def bits_with(extra: Set[int]) -> List[int]:
            opt = accepted | extra
            length = max(n_est, max(opt) + 1 if opt else 0) + TAIL_PAD
            return [1 if i in opt else 0 for i in range(length)]

        work: Deque[Tuple[int, int]] = deque([(1, 0)])
        while work:
            mod, res = work.popleft()
            state.best = set(dangerous)
            state.pinned = set(dangerous)
            state.candidates = {i for i in range(n_est)
                                if i not in accepted and i not in dangerous}
            idxs = [i for i in indices_of(mod, res, n_est)
                    if i not in accepted and i not in dangerous]
            if not idxs:
                continue
            t = yield Probe(DecisionSequence(bits_with(set(idxs))))
            n_est = max(n_est, t.unique_queries)
            if t.ok:
                accepted |= set(idxs)
                continue
            if len(idxs) == 1:
                dangerous.add(idxs[0])
                continue
            work.append((mod * 2, res))
            work.append((mod * 2, res + mod))

        # closing sweep: some indices past the original estimate may
        # remain; try them optimistically as one block
        state.best = set(dangerous)
        state.pinned = set(dangerous)
        state.candidates = set()
        t = yield Probe(sequence_from_pessimistic_set(
            dangerous, max(n_est, max(dangerous) + 1 if dangerous else 0)))
        if not t.ok:
            # fall back to chunked refinement from what we learned; on
            # budget exhaustion inside the fallback the dangerous set
            # must survive into best_known() (state.extra)
            state.epoch += 1
            state.extra = set(dangerous)
            rest = yield from chunked_search(state, ctx)
            return rest | dangerous
        return dangerous
