"""Fig. 2: the probing strategies and the value of deduction/caching.

The figure illustrates recursive probing over a query sequence where
the "dangerous" queries are clustered, and notes that (a) a test whose
outcome is implied by its parent and sibling can be skipped, and (b)
chunked probing beats frequency-space probing exactly when dangerous
queries cluster.  We regenerate this quantitatively: synthetic oracles
with clustered vs. scattered dangerous sets, probed by the registry's
chunked and frequency strategies, reporting the number of tests each
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..oraql.executor import TestOutcome
from ..oraql.sequence import DecisionSequence
from ..oraql.strategies import StrategyContext, create_strategy
from .tables import render_table


class SyntheticOracle:
    """A stand-in compile-and-test pipeline with a fixed dangerous set.

    A "test" passes iff every dangerous index is answered pessimistically.
    The query count is fixed (the simple, independent-queries model of
    Fig. 2), and every test is counted: there is no executable-hash
    cache to serve a repeated sequence.
    """

    def __init__(self, n_queries: int, dangerous: Set[int]):
        self.n = n_queries
        self.dangerous = set(dangerous)
        self.tests = 0

    def test(self, seq: DecisionSequence) -> bool:
        bits = tuple(seq.bits[i] if i < len(seq.bits) else 1
                     for i in range(self.n))
        self.tests += 1
        return all(bits[d] == 0 for d in self.dangerous)


def probe_synthetic(name: str, oracle: SyntheticOracle) -> Set[int]:
    """The driver's workflow against the synthetic oracle: test the
    all-optimistic sequence, and if it fails, drive the registered
    strategy ``name`` until it isolates the pessimistic set.  Every
    proposed probe costs one ``oracle.tests``."""
    if oracle.test(DecisionSequence()):
        return set()
    strat = create_strategy(name)
    strat.start(StrategyContext(first=TestOutcome(False, oracle.n, "")))
    while not strat.done():
        probe = strat.propose()
        strat.observe(probe, TestOutcome(oracle.test(probe.sequence),
                                         oracle.n, ""))
    return strat.result()


@dataclass
class Fig2Row:
    layout: str
    n: int
    k: int
    chunked_tests: int
    frequency_tests: int

    def cells(self) -> List:
        return [self.layout, self.n, self.k, self.chunked_tests,
                self.frequency_tests,
                f"{self.frequency_tests / max(1, self.chunked_tests):.2f}x"]


def run_fig2(n: int = 256) -> List[Fig2Row]:
    layouts = {
        "clustered (8 adjacent)": {n // 2 + i for i in range(8)},
        "two clusters (2 x 4)": {n // 6 + i for i in range(4)}
                                | {3 * n // 4 + i for i in range(4)},
        "scattered (8 uniform)": {(n // 9) * k + 3 for k in range(8)},
        "single": {n // 2 + 9},
        "none": set(),
    }
    rows = []
    for layout, dangerous in layouts.items():
        tests = []
        for name in ("chunked", "frequency"):
            oracle = SyntheticOracle(n, dangerous)
            found = probe_synthetic(name, oracle)
            assert found == dangerous, (layout, name, found)
            tests.append(oracle.tests)
        rows.append(Fig2Row(layout, n, len(dangerous), *tests))
    return rows


HEADERS = ["dangerous layout", "#queries", "#dangerous",
           "chunked tests", "frequency tests", "freq/chunked"]


def render_fig2(rows: List[Fig2Row]) -> str:
    return render_table(
        HEADERS, [r.cells() for r in rows],
        title="Fig. 2 — probing strategies on synthetic dangerous sets")
