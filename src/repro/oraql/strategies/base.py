"""The pluggable probing-strategy interface.

A :class:`Strategy` is the search policy of a probing session: given the
failed all-optimistic attempt it repeatedly *proposes* a
:class:`~repro.oraql.sequence.DecisionSequence` to test, *observes* the
verdict, and is *done* when it has isolated a locally-maximal safe
optimistic set.  The driver owns everything else — compilation, verdict
caching, journaling, budgets — so a strategy is a pure search policy
over decision subsets:

    strategy.start(ctx)            # ctx carries the first failing probe
    while not strategy.done():
        probe = strategy.propose()
        outcome = <compile + test probe.sequence>
        strategy.observe(probe, outcome)
    pessimistic = strategy.result()

Contract highlights (tests/test_strategy_properties.py holds every
registered strategy to these):

* **determinism** — a strategy is a pure function of the observed
  outcomes; replaying the same verdicts reproduces the same probes
  bit for bit (what makes journal ``--resume`` work unchanged);
* **progress** — :meth:`pinned` grows monotonically and
  :meth:`candidates` shrinks within an :attr:`epoch` (a fallback or
  restart starts a new epoch);
* **no repeats** — no two probes of a session carry the same bits;
* **budget grace** — :meth:`best_known` is always the best partial
  answer, so the driver can report progress when the test budget dies
  mid-search.

Every strategy is a generator coroutine (``outcome = yield
Probe(sequence)``) that :class:`Strategy` drives through the lifecycle.
The chunked and frequency searches are 1:1 transcriptions of the
pre-refactor in-driver search loops, which is what keeps them
probe-for-probe identical to the originals
(``tests/goldens/strategy_probes_*.txt``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Generator, Optional, Set

from ..sequence import DecisionSequence

#: sequence padding so "everything beyond the known range" stays
#: pessimistic while probing (the pass answers past-the-end queries
#: optimistically, so explicit 0-padding expresses "pessimistic tail")
TAIL_PAD = 4


@dataclass
class Probe:
    """One proposed test: the sequence to try."""

    sequence: DecisionSequence


@dataclass
class StrategyContext:
    """What the driver hands a strategy at :meth:`Strategy.start`."""

    #: the failed all-optimistic attempt (``.ok``/``.unique_queries``)
    first: object
    #: driver callback rendering a human explanation of a failing
    #: outcome (used in raised ProbingErrors)
    explain: Optional[Callable[[object], Optional[str]]] = None


@dataclass
class SearchState:
    """Book-keeping a generator search shares with its wrapper."""

    #: best-known pessimistic set so far (budget-grace currency);
    #: updated at exactly the program points the pre-refactor driver
    #: updated ``_best_pessimistic``
    best: Set[int] = field(default_factory=set)
    #: indices unconditionally OR-ed into :meth:`Strategy.best_known`
    #: (the frequency fallback's "keep the dangerous set on exhaustion")
    extra: Set[int] = field(default_factory=set)
    #: binary-search outcomes implied by a sibling rather than tested
    deduced: int = 0
    #: indices proven pessimistic (grows monotonically per epoch)
    pinned: Set[int] = field(default_factory=set)
    #: indices still undecided (shrinks monotonically per epoch)
    candidates: Set[int] = field(default_factory=set)
    #: bumped when the search falls back / restarts (new epoch)
    epoch: int = 0


#: a generator search: yields Probes, receives outcomes, returns the set
SearchGen = Generator[Probe, object, Set[int]]


class Strategy(ABC):
    """Base class for probing strategies (see module docstring).

    Subclasses implement :meth:`_search` as a generator that yields
    :class:`Probe` objects and receives each probe's outcome from the
    matching ``yield``; its ``return`` value is the pessimistic set.
    This class drives that generator through the lifecycle.
    """

    #: registry name; subclasses set it and register themselves
    name: ClassVar[str] = "?"

    def __init__(self):
        self.state = SearchState()
        self._gen: Optional[SearchGen] = None
        self._pending: Optional[Probe] = None
        self._result: Optional[Set[int]] = None

    @abstractmethod
    def _search(self, ctx: StrategyContext) -> SearchGen:
        """The search coroutine (see class docstring)."""

    def _advance(self, send_value) -> None:
        try:
            if send_value is None:
                self._pending = next(self._gen)
            else:
                self._pending = self._gen.send(send_value)
        except StopIteration as stop:
            self._pending = None
            self._result = set(stop.value if stop.value is not None
                               else self.state.best)

    def start(self, ctx: StrategyContext) -> None:
        """Begin the search from the failed all-optimistic attempt."""
        self._gen = self._search(ctx)
        self._advance(None)

    def propose(self) -> Probe:
        """The next sequence to test.  Only valid while not :meth:`done`;
        must be followed by :meth:`observe` before the next propose."""
        if self._pending is None:
            raise RuntimeError(f"strategy {self.name!r}: propose() after "
                               f"done()")
        return self._pending

    def observe(self, probe: Probe, outcome) -> None:
        """Feed back the verdict for the proposed probe."""
        if probe is not self._pending:
            raise RuntimeError(f"strategy {self.name!r}: observe() for a "
                               f"probe it did not propose")
        self._advance(outcome)

    def done(self) -> bool:
        """True once the pessimistic set has been isolated."""
        return self._pending is None

    def result(self) -> Set[int]:
        """The final pessimistic set.  Only valid once :meth:`done`."""
        if self._result is None:
            raise RuntimeError(f"strategy {self.name!r}: result() before "
                               f"done()")
        return set(self._result)

    def best_known(self) -> Set[int]:
        """Best partial answer right now (budget-grace reporting)."""
        return set(self.state.best) | set(self.state.extra)

    def pinned(self) -> Set[int]:
        """Indices proven pessimistic so far."""
        return set(self.state.pinned)

    def candidates(self) -> Set[int]:
        """Indices still under consideration."""
        return set(self.state.candidates)

    @property
    def epoch(self) -> int:
        """Fallbacks/restarts bump this; progress invariants hold
        within one epoch."""
        return self.state.epoch

    @property
    def deduced(self) -> int:
        """Verdicts implied (not tested) so far — report bookkeeping."""
        return self.state.deduced


#: the former name of :class:`Strategy`, kept because the benchmark's
#: per-layer instrumentation (``bench/layers.py``) resolves the
#: lifecycle methods under it
GeneratorStrategy = Strategy
