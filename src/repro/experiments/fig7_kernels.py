"""Fig. 7: static properties of TestSNAP Kokkos/CUDA kernels.

The paper reports, for the 7 (of 44) kernels whose static properties
change under ORAQL, the register count and stack-frame size of the
original vs. the optimistic device compilation.  We regenerate the same
two columns for every kernel of our TestSNAP CUDA configuration and
highlight the changed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..oraql import ProbingDriver
from ..workloads.base import get_config
from .tables import pct, render_table


@dataclass
class Fig7Row:
    kernel: str
    regs_orig: int
    stack_orig: int
    regs_oraql: int
    stack_oraql: int

    @property
    def changed(self) -> bool:
        return (self.regs_orig != self.regs_oraql
                or self.stack_orig != self.stack_oraql)

    def cells(self) -> List:
        return [self.kernel, self.regs_orig, self.stack_orig,
                self.regs_oraql, self.stack_oraql,
                pct(self.regs_oraql, self.regs_orig),
                pct(self.stack_oraql, self.stack_orig),
                "*" if self.changed else ""]


def run_fig7(config_row: str = "TestSNAP-kokkos-cuda",
             strategy: str = "chunked") -> List[Fig7Row]:
    report = ProbingDriver(get_config(config_row), strategy=strategy).run()
    orig = report.baseline_program.kernel_info
    final = report.final_program.kernel_info
    rows: List[Fig7Row] = []
    for name in sorted(orig):
        o = orig[name]
        f = final.get(name, o)
        rows.append(Fig7Row(name, o.registers, o.stack_bytes,
                            f.registers, f.stack_bytes))
    return rows


HEADERS = ["Kernel", "regs orig", "stack orig", "regs ORAQL",
           "stack ORAQL", "Δ regs", "Δ stack", "changed"]


def render_fig7(rows: List[Fig7Row]) -> str:
    n_changed = sum(1 for r in rows if r.changed)
    return render_table(
        HEADERS, [r.cells() for r in rows],
        title=(f"Fig. 7 — TestSNAP Kokkos/CUDA kernel static properties "
               f"({n_changed} of {len(rows)} kernels changed; "
               f"paper: 7 of 44)"))
