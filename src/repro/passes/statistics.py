"""Compilation statistics registry (LLVM's ``-mllvm -stats`` equivalent).

Every pass reports named counters here; the Fig. 6 experiment compares
original-vs-ORAQL values of selected counters (loads hoisted, stores
deleted, vectorized loops, machine instructions, register spills, ...).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple


class Statistics:
    """Counter registry keyed by (pass name, statistic name)."""

    def __init__(self):
        self.counters: Counter = Counter()
        #: the adds of the pipeline step the function memo records,
        #: in order; None when no step records
        self.journal: Optional[List[Tuple[Tuple[str, str], int]]] = None

    def add(self, pass_name: str, stat: str, n: int = 1) -> None:
        if n:
            self.counters[(pass_name, stat)] += n
            if self.journal is not None:
                self.journal.append(((pass_name, stat), n))

    def get(self, pass_name: str, stat: str) -> int:
        return self.counters.get((pass_name, stat), 0)

    def by_pass(self, pass_name: str) -> Dict[str, int]:
        return {stat: v for (p, stat), v in self.counters.items()
                if p == pass_name}

    def rows(self) -> List[Tuple[str, str, int]]:
        return sorted((p, s, v) for (p, s), v in self.counters.items())

    def report(self) -> str:
        """Render like LLVM's ``-stats`` block."""
        lines = ["===--- Statistics Collected ---==="]
        for p, s, v in self.rows():
            lines.append(f"{v:>8} {p} - {s}")
        return "\n".join(lines)

    def merge(self, other: "Statistics") -> None:
        if other is self:
            # self-merge would double every counter; repeated-driver
            # scenarios reuse reporting contexts, so guard it here
            return
        self.counters.update(other.counters)
