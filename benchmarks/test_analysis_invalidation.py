"""Analysis-invalidation benchmark: fine-grained ``PreservedAnalyses``
invalidation vs the invalidate-everything referee
(:class:`repro.fuzz.oracle.RefereeCompiler`, whose compiles run
:class:`repro.passes.CoarseAnalysisManager`).

Two sweeps, both asserting observable-behavior neutrality first:

* a compile sweep over every bundled configuration — identical
  executable hashes and AA query streams, with the DominatorTree /
  LoopInfo construction counts recorded per row;
* a probing sweep on representative configurations — identical probing
  verdicts (unique optimistic/pessimistic query counts, no-alias
  totals), with the per-report analysis rebuild counters compared.

The headline number (recorded in ``results/analysis_invalidation.txt``)
is the reduction in DT+LI constructions, which must be >= 30%.
MemorySSA construction issues alias queries, so its build count must be
*identical* across modes — any drift there would change the ORAQL query
stream.

No wall-clock is recorded: one unpaired run per mode, fine always first,
cannot support a timing comparison, and without it the artifact is
deterministic.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fuzz.oracle import RefereeCompiler
from repro.oraql import ProbingDriver
from repro.oraql.compiler import Compiler
from repro.workloads.base import get_config, row_names

from conftest import save_result

#: probing is ~10-30x a single compile, so the probing-level
#: differential runs on a representative pair: one small offload config
#: and one query-heavy sequential config
PROBE_ROWS = ("GridMini-offload", "XSBench-seq")

#: mode -> compiler factory
COMPILERS = {"fine": Compiler, "coarse": RefereeCompiler}


def _compile_row(row: str) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for mode, make in COMPILERS.items():
        prog = make().compile(get_config(row))
        out[mode] = {
            "hash": prog.exe_hash,
            "queries": prog.ctx.aa.total_queries,
            "no_alias": prog.no_alias_count,
            "builds": prog.analysis_counters["builds"],
            "preserved": prog.analysis_counters["preserved_hits"],
        }
    return out


def _dtli(builds: Dict[str, int]) -> int:
    return builds.get("DominatorTree", 0) + builds.get("LoopInfo", 0)


def test_invalidation_compile_sweep(benchmark, once):
    def sweep():
        return {row: _compile_row(row) for row in row_names()}

    results = once(benchmark, sweep)

    lines: List[str] = []
    lines.append("Analysis invalidation: fine-grained (PreservedAnalyses) "
                 "vs coarse (the invalidate-everything referee)")
    lines.append("")
    lines.append(f"{'configuration':<24} {'DT+LI fine':>10} "
                 f"{'DT+LI coarse':>12} {'saved':>7} {'MSSA':>5}")
    tot = {"fine": 0, "coarse": 0}
    for row, r in results.items():
        # neutrality: the executable and the query stream are unchanged
        assert r["fine"]["hash"] == r["coarse"]["hash"], row
        assert r["fine"]["queries"] == r["coarse"]["queries"], row
        assert r["fine"]["no_alias"] == r["coarse"]["no_alias"], row
        assert r["fine"]["builds"].get("MemorySSA") == \
            r["coarse"]["builds"].get("MemorySSA"), row
        f, c = _dtli(r["fine"]["builds"]), _dtli(r["coarse"]["builds"])
        tot["fine"] += f
        tot["coarse"] += c
        saved = 100.0 * (1 - f / c) if c else 0.0
        lines.append(f"{row:<24} {f:>10} {c:>12} {saved:>6.1f}% "
                     f"{r['fine']['builds'].get('MemorySSA', 0):>5}")
    saved_total = 100.0 * (1 - tot["fine"] / tot["coarse"])
    lines.append("")
    lines.append(f"total DT+LI constructions: {tot['fine']} fine vs "
                 f"{tot['coarse']} coarse ({saved_total:.1f}% saved)")
    table = "\n".join(lines)
    save_result("analysis_invalidation", table)
    print("\n" + table)

    # acceptance floor: >= 30% fewer DT/LI constructions
    assert saved_total >= 30.0, table


def test_invalidation_probing_differential():
    lines: List[str] = []
    lines.append("")
    lines.append("probing-level differential (full ORAQL probing loop, "
                 "fine vs coarse):")
    for row in PROBE_ROWS:
        reports = {}
        for mode, make in COMPILERS.items():
            reports[mode] = ProbingDriver(get_config(row),
                                          compiler=make()).run()
        f, c = reports["fine"], reports["coarse"]
        # verdict-stream neutrality across the whole probing loop
        assert (f.opt_unique, f.pess_unique, f.no_alias_oraql,
                f.no_alias_original, f.compiles) == \
               (c.opt_unique, c.pess_unique, c.no_alias_oraql,
                c.no_alias_original, c.compiles), row
        assert f.analysis_builds.get("MemorySSA") == \
            c.analysis_builds.get("MemorySSA"), row
        fd, cd = _dtli(f.analysis_builds), _dtli(c.analysis_builds)
        assert fd <= cd * 0.7, (row, fd, cd)
        lines.append(f"  {row:<22} {f.compiles} compiles, DT+LI {fd} fine "
                     f"vs {cd} coarse ({100.0 * (1 - fd / cd):.1f}% saved)")
    text = "\n".join(lines)
    print(text)
    # append to the compile-sweep artifact when it exists
    import os
    from conftest import RESULTS_DIR
    path = os.path.join(RESULTS_DIR, "analysis_invalidation.txt")
    if os.path.exists(path):
        with open(path, "a") as fh:
            fh.write(text + "\n")
