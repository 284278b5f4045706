"""Fig. 4: alias-query statistics for every benchmark configuration.

For each of the sixteen configurations the paper reports: the number of
queries the ORAQL pass answered optimistically / pessimistically (unique
and cached, under the final sequence), and the total number of no-alias
responses across the whole AA chain for the original vs. the ORAQL
compilation.  We regenerate the same columns from our probing runs and
print them next to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..oraql import ProbingDriver, ProbingReport
from ..workloads.base import VariantInfo, get_config, get_info, row_names
from .tables import render_table


@dataclass
class Fig4Row:
    info: VariantInfo
    report: ProbingReport

    def cells(self) -> List:
        r = self.report
        i = self.info
        return [
            i.benchmark, i.programming_model, i.source_files,
            r.opt_unique, r.opt_cached, r.pess_unique, r.pess_cached,
            r.no_alias_original, r.no_alias_oraql,
            f"{r.no_alias_delta_percent:+.1f}%",
            f"{i.paper_opt_unique}/{i.paper_pess_unique}", i.paper_delta,
        ]


HEADERS = ["Benchmark", "Model", "Source Files",
           "OptU", "OptC", "PessU", "PessC",
           "NoAlias orig", "NoAlias ORAQL", "Δ",
           "paper OptU/PessU", "paper Δ"]


def run_fig4(rows: Optional[List[str]] = None,
             strategy: str = "chunked",
             jobs: int = 1,
             cache_dir: Optional[str] = None) -> List[Fig4Row]:
    names = list(rows or row_names())
    if jobs > 1 or cache_dir:
        # the parallel engine probes all configurations concurrently and
        # shares the persistent verdict cache across them
        from ..oraql.parallel import ParallelProbingDriver
        reports = ParallelProbingDriver(
            [get_config(n) for n in names], jobs=jobs, strategy=strategy,
            cache_dir=cache_dir).run()
        return [Fig4Row(get_info(n), rep)
                for n, rep in zip(names, reports)]
    out: List[Fig4Row] = []
    for name in names:
        cfg = get_config(name)
        report = ProbingDriver(cfg, strategy=strategy).run()
        out.append(Fig4Row(get_info(name), report))
    return out


def render_fig4(rows: List[Fig4Row]) -> str:
    return render_table(
        HEADERS, [r.cells() for r in rows],
        title="Fig. 4 — Alias query statistics (measured vs. paper)")


def check_shape(row: Fig4Row) -> List[str]:
    """Shape assertions against the paper: which configurations need
    pessimistic answers, and the sign of the no-alias delta."""
    problems = []
    r, i = row.report, row.info
    if i.paper_fully_optimistic and r.pess_unique != 0:
        problems.append(
            f"{i.row_name}: paper is fully optimistic, we needed "
            f"{r.pess_unique} pessimistic answers")
    if not i.paper_fully_optimistic and r.pess_unique == 0:
        problems.append(
            f"{i.row_name}: paper needs pessimistic answers, we found none")
    if r.no_alias_oraql < r.no_alias_original:
        problems.append(f"{i.row_name}: ORAQL lowered the no-alias count")
    return problems
