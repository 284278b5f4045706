"""The provenance-prior strategy: learned danger ordering.

A logistic model (pure stdlib with an optional numpy fast path; no
external deps) maps a query's provenance features — issuing pass,
hazard shape, pointer-pair fingerprint bucket — to the probability
that the query ends up pinned pessimistic.  The coefficients are fitted
offline on fuzz-campaign traces (``python -m repro.oraql fit-prior``)
and checked in as a versioned artifact (``prior_model.json``) so a live
session pays nothing to load them.

The search keeps chunked's outer skeleton — prefix test, narrow the
smallest failing ``k``, extend the prefix — because that skeleton is
what guarantees convergence to chunked's exact pessimistic set: for a
monotone ``g`` any interval-narrowing policy finds the same boundary.
It differs from chunked in three exactness-preserving ways:

* the narrowing probe point is the boundary the model predicts (the
  highest-danger query in the open interval) instead of the midpoint —
  a correctly-predicted dangerous query is isolated in ~2 probes
  instead of log2(span); a signal-free window degrades to the midpoint,
  i.e. plain binary search;
* the per-round whole-span probe ``g(span)`` is skipped: by prefix
  stability it compiles to the *identical* executable as the failing
  prefix probe (the goldens show it as a verdict-cache hit every
  round), so its verdict — fail — is already known;
* the round-0 prefix probe (the empty sequence) is taken from the
  driver's failed all-optimistic attempt instead of re-proposed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ProbingError
from ..sequence import DecisionSequence
from .base import Probe, SearchGen, Strategy, StrategyContext
from .features import FP_BUCKETS, feature_indices, vector_width

#: the checked-in artifact, regenerated by ``fit-prior``
DEFAULT_MODEL_PATH = os.path.join(os.path.dirname(__file__),
                                  "prior_model.json")

MODEL_FORMAT_VERSION = 1


@dataclass
class PriorModel:
    """A sparse logistic model over one-hot provenance features."""

    weights: List[float]
    buckets: int = FP_BUCKETS
    version: int = MODEL_FORMAT_VERSION
    meta: Dict[str, object] = field(default_factory=dict)

    def score(self, rec) -> float:
        """Predicted danger probability for one query record."""
        z = sum(self.weights[i] for i in feature_indices(rec, self.buckets))
        return 1.0 / (1.0 + math.exp(-max(-30.0, min(30.0, z))))

    # -- persistence ------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": self.version, "buckets": self.buckets,
                       "weights": self.weights, "meta": self.meta},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PriorModel":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"prior model {path}: format version "
                f"{data.get('version')!r}, expected {MODEL_FORMAT_VERSION}")
        model = cls(weights=[float(w) for w in data["weights"]],
                    buckets=int(data.get("buckets", FP_BUCKETS)),
                    meta=dict(data.get("meta", {})))
        if len(model.weights) != vector_width(model.buckets):
            raise ValueError(
                f"prior model {path}: {len(model.weights)} weights, "
                f"expected {vector_width(model.buckets)}")
        return model

    @classmethod
    def load_default(cls) -> "PriorModel":
        """The checked-in artifact; a zero model (uniform prior — the
        strategy degrades to plain binary search) when absent."""
        try:
            return cls.load(DEFAULT_MODEL_PATH)
        except (OSError, ValueError, KeyError):
            return cls(weights=[0.0] * vector_width())

    # -- fitting ----------------------------------------------------------
    @classmethod
    def fit(cls, samples: Sequence[Tuple[List[int], bool]],
            buckets: int = FP_BUCKETS,
            epochs: int = 300, lr: float = 0.5,
            l2: float = 1e-3) -> "PriorModel":
        """Batch-gradient logistic regression over sparse one-hot
        samples ``(active_indices, dangerous)``.  Positives (pinned
        queries) are rare, so they are up-weighted to balance the
        classes.  Deterministic: fixed initialisation, fixed order."""
        width = vector_width(buckets)
        pos = sum(1 for _, y in samples if y)
        neg = len(samples) - pos
        pos_w = (neg / pos) if pos else 1.0
        try:
            import numpy as np
            x = np.zeros((len(samples), width))
            y = np.zeros(len(samples))
            sw = np.ones(len(samples))
            for row, (active, label) in enumerate(samples):
                x[row, active] = 1.0
                y[row] = 1.0 if label else 0.0
                if label:
                    sw[row] = pos_w
            w = np.zeros(width)
            denom = sw.sum() or 1.0
            for _ in range(epochs):
                p = 1.0 / (1.0 + np.exp(-np.clip(x @ w, -30.0, 30.0)))
                grad = x.T @ (sw * (p - y)) / denom + l2 * w
                w -= lr * grad
            weights = [float(v) for v in w]
        except ImportError:  # pure-stdlib fallback, same math
            weights = [0.0] * width
            denom = float(sum(pos_w if y else 1.0 for _, y in samples)) \
                or 1.0
            for _ in range(epochs):
                grad = [l2 * w for w in weights]
                for active, label in samples:
                    z = sum(weights[i] for i in active)
                    p = 1.0 / (1.0 + math.exp(-max(-30.0, min(30.0, z))))
                    g = (pos_w if label else 1.0) * \
                        (p - (1.0 if label else 0.0)) / denom
                    for i in active:
                        grad[i] += g
                weights = [w - lr * g for w, g in zip(weights, grad)]
        model = cls(weights=weights, buckets=buckets)
        model.meta = {"samples": len(samples), "positives": pos,
                      "epochs": epochs, "lr": lr, "l2": l2}
        return model

    def auc(self, samples: Sequence[Tuple[List[int], bool]]) -> float:
        """Rank quality (probability a positive outranks a negative)."""
        scored = [(sum(self.weights[i] for i in active), label)
                  for active, label in samples]
        pos = sorted(s for s, y in scored if y)
        neg = sorted(s for s, y in scored if not y)
        if not pos or not neg:
            return 0.5
        import bisect
        wins = 0.0
        for s in pos:
            below = bisect.bisect_left(neg, s)
            ties = bisect.bisect_right(neg, s) - below
            wins += below + 0.5 * ties
        return wins / (len(pos) * len(neg))


class PriorStrategy(Strategy):
    """Chunked skeleton with prior-guided interval narrowing."""

    name = "provenance-prior"

    def __init__(self, model: Optional[PriorModel] = None):
        super().__init__()
        self.model = model if model is not None \
            else PriorModel.load_default()

    #: minimum predicted danger before a window pick overrides the
    #: midpoint — a flat or unconfident model degrades to binary search
    #: (a wrong confident guess costs ~1 probe; an unguarded near-tie
    #: degrades the search into a linear scan)
    CONFIDENCE = 0.6

    def _pick(self, lo: int, hi: int, offset: int,
              scores: Dict[int, float]) -> int:
        """The next narrowing probe ``k`` in the open interval
        ``lo < k < hi`` — the boundary implied by the highest-scored
        query in the window (absolute indices ``offset+lo ..
        offset+hi-1``), clamped into the interval; midpoint when no
        window score clears :attr:`CONFIDENCE`."""
        best_k, best_s = None, self.CONFIDENCE
        for k in range(lo + 1, hi + 1):
            s = scores.get(offset + k - 1, 0.0)
            if s > best_s:
                best_k, best_s = k, s
        if best_k is None:
            return (lo + hi) // 2
        return max(lo + 1, min(hi - 1, best_k))

    def _search(self, ctx: StrategyContext) -> SearchGen:
        state = self.state
        tail_pad = ctx.tail_pad
        # danger scores by absolute unique-query index, from the
        # all-optimistic compile's provenance (cached queries carry
        # index -1 and score nothing)
        scores: Dict[int, float] = {}
        for rec in ctx.records:
            if getattr(rec, "index", -1) >= 0 and not rec.cached:
                scores[rec.index] = self.model.score(rec)
        decided: List[int] = []
        first_round = True
        while True:
            state.best = {i for i, b in enumerate(decided) if b == 0}
            state.pinned = set(state.best)
            if first_round:
                # the driver's failed all-optimistic attempt *is* the
                # empty-prefix probe — no need to re-propose it
                t = ctx.first
                first_round = False
            else:
                t = yield Probe(DecisionSequence(decided))
            if t.ok:
                state.candidates = set()
                return {i for i, b in enumerate(decided) if b == 0}
            n = t.unique_queries
            state.candidates = set(range(len(decided), n))
            span = n - len(decided)
            if span <= 0:
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

            def g_bits(k: int) -> List[int]:
                return decided + [1] * k + [0] * (span - k + tail_pad)

            # g(span) is the failing prefix probe under prefix
            # stability (identical executable), so g(span)=False is
            # already established; narrow the smallest k with
            # g(k)=False, probing at the model-predicted boundary
            lo, hi = 0, span  # g(lo)=True, g(hi)=False
            while hi - lo > 1:
                mid = self._pick(lo, hi, len(decided), scores)
                t = yield Probe(DecisionSequence(g_bits(mid)))
                if t.ok:
                    lo = mid
                else:
                    hi = mid
                    state.deduced += 1
            decided.extend([1] * lo)
            decided.append(0)
