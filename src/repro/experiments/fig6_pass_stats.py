"""Fig. 6: selected LLVM-statistics deltas between the original and the
ORAQL compilation.

The paper picks one interesting (pass, statistic) pair per benchmark row
— loads hoisted by LICM, stores deleted by DSE, vectorized loops,
machine instructions from the asm printer, register spills, ... — and
reports original vs. ORAQL values.  We regenerate the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..oraql import ProbingDriver
from ..workloads.base import get_config
from .tables import pct, render_table

#: the rows of Fig. 6: (config row, pass display name, statistic)
FIG6_ROWS: List[Tuple[str, str, str]] = [
    ("XSBench-seq", "asm printer", "# machine instructions generated"),
    ("XSBench-cuda-thrust", "Early CSE", "# instructions eliminated"),
    ("TestSNAP-kokkos-cuda", "asm printer", "# machine instructions generated"),
    ("TestSNAP-fortran", "asm printer", "# machine instructions generated"),
    ("TestSNAP-kokkos-cuda", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("TestSNAP-fortran", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("GridMini-offload", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("Quicksilver-openmp", "Delete dead loops", "# deleted loops"),
    ("Quicksilver-openmp", "Dead Store Elimination", "# stores deleted"),
    ("Quicksilver-openmp", "Global Value Numbering", "# loads deleted"),
    ("Quicksilver-openmp", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("Quicksilver-openmp", "register allocation",
     "# register spills inserted"),
    ("MiniFE-openmp", "SLP Vectorizer", "# vector instructions generated"),
    ("MiniGMG-ompif", "Loop Vectorizer", "# vectorized loops"),
    ("MiniGMG-omptask", "Loop Vectorizer", "# vectorized loops"),
    ("MiniGMG-sse", "Loop Vectorizer", "# vectorized loops"),
    ("MiniGMG-omptask", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("MiniGMG-ompif", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
    ("MiniGMG-sse", "Loop Invariant Code Motion",
     "# loads hoisted or sunk"),
]

#: paper values per row index: (original, oraql, delta string)
PAPER_VALUES = [
    (1763, 1688, "-4.2%"), (1482, 1538, "+3.8%"), (8573, 8309, "-3%"),
    (57020, 53487, "-6.1%"), (728, 931, "+27.8%"), (70, 961, "+1272%"),
    (4, 10, "+150%"), (2, 55, "+2650%"), (6, 98, "+1533.3%"),
    (45, 245, "+444.4%"), (5, 21, "+320%"), (780, 757, "-2.9%"),
    (139, 185, "+33%"), (9, 12, "+33%"), (9, 11, "+22%"), (11, 13, "+18%"),
    (208, 366, "+75.9%"), (215, 394, "+83.2%"), (202, 368, "+82%"),
]


@dataclass
class Fig6Row:
    config: str
    pass_name: str
    stat: str
    original: int
    oraql: int
    paper: Tuple[int, int, str]

    def cells(self) -> List:
        return [self.config, self.pass_name, self.stat,
                self.original, self.oraql, pct(self.oraql, self.original),
                f"{self.paper[0]} -> {self.paper[1]} ({self.paper[2]})"]


def _final_sequences(configs: List[str], strategy: str = "chunked"
                     ) -> Dict[str, object]:
    """Probe each distinct config once; reuse across Fig. 6 rows."""
    seqs: Dict[str, object] = {}
    for name in configs:
        if name in seqs:
            continue
        report = ProbingDriver(get_config(name), strategy=strategy).run()
        seqs[name] = report
    return seqs


def run_fig6(rows=FIG6_ROWS, paper=PAPER_VALUES) -> List[Fig6Row]:
    reports = _final_sequences(sorted({r[0] for r in rows}))
    out: List[Fig6Row] = []
    for (config, pass_name, stat), pval in zip(rows, paper):
        rep = reports[config]
        original = rep.baseline_program.stats.get(pass_name, stat)
        oraql = rep.final_program.stats.get(pass_name, stat)
        out.append(Fig6Row(config, pass_name, stat, original, oraql, pval))
    return out


HEADERS = ["Benchmark", "Pass", "Property", "Original", "ORAQL", "Δ",
           "paper (orig -> ORAQL)"]


def render_fig6(rows: List[Fig6Row]) -> str:
    return render_table(HEADERS, [r.cells() for r in rows],
                        title="Fig. 6 — LLVM statistics, original vs. ORAQL")
