"""Report generation (paper §II: "a report identifying the
optimistically and forced pessimistically answered alias queries,
associated with source lines, where possible, and with the passes that
issued them").
"""

from __future__ import annotations

from typing import List

from .driver import ProbingReport
from .pass_ import QueryRecord
from .verify import TRIAGE_CLASSES


def render_query(rec: QueryRecord) -> str:
    return "\n".join(rec.render())


def render_pessimistic_dump(report: ProbingReport) -> str:
    """Fig. 3-style dump of every pessimistically answered unique query,
    preceded by the pass that issued it."""
    if not report.pessimistic_records and report.pessimistic_dump is not None:
        # records were detached for cross-process transport; the dump
        # was pre-rendered in the worker
        return report.pessimistic_dump
    lines: List[str] = []
    for rec in report.pessimistic_records:
        lines.append(f"Executing Pass '{rec.issuing_pass}' on Function "
                     f"'{rec.scope}'...")
        lines.extend(rec.render())
        lines.append("")
    return "\n".join(lines)


def render_report(report: ProbingReport) -> str:
    """The full human-readable driver report."""
    r = report
    out: List[str] = []
    out.append(f"== ORAQL report: {r.config_name} ==")
    if r.failed:
        out.append(f"FAILED: {r.error}")
        for err in r.worker_errors:
            if err != r.error:
                out.append(f"  worker error: {err}")
        return "\n".join(out)
    if r.fully_optimistic:
        out.append("fully optimistic: all queries can be answered no-alias")
    out.append(f"optimistic queries : {r.opt_unique} unique, "
               f"{r.opt_cached} cached")
    out.append(f"pessimistic queries: {r.pess_unique} unique, "
               f"{r.pess_cached} cached")
    out.append(f"no-alias responses : {r.no_alias_original} original -> "
               f"{r.no_alias_oraql} ORAQL "
               f"({r.no_alias_delta_percent:+.1f}%)")
    if r.budget_exhausted:
        out.append("BUDGET EXHAUSTED: partial result — the pessimistic set "
                   "below is the best known, not verified locally-maximal")
    out.append(f"probing strategy   : {r.strategy}")
    out.append(f"probing effort     : {r.compiles} compiles, "
               f"{r.compiles_skipped} skipped by answer replay, "
               f"{r.tests_run} tests run, {r.tests_cached} served from the "
               f"executable-hash cache, {r.tests_deduced} deduced; "
               + (f"final program reused from compile #{r.final_reused}"
                  if r.final_reused is not None
                  else "final program compiled"))
    if r.function_memo:
        memo = dict(r.function_memo)
        line = (f"function memo      : "
                f"{memo.pop('steps replayed', 0)} pass steps replayed, "
                f"{memo.pop('functions materialized', 0)} functions "
                f"materialized")
        if memo:
            line += "; " + ", ".join(f"{n} compiles {why}" for why, n
                                     in sorted(memo.items()))
        out.append(line)
    if r.cache_hits or r.cache_misses:
        out.append(f"verdict cache      : {r.cache_hits} hits, "
                   f"{r.cache_misses} misses")
    if r.baseline_cached:
        out.append("baseline           : verdict cached, not run")
    if r.triage_counts:
        ordered = [c for c in TRIAGE_CLASSES if r.triage_counts.get(c)]
        ordered += sorted(set(r.triage_counts) - set(TRIAGE_CLASSES))
        out.append("test triage        : " + ", ".join(
            f"{c} {r.triage_counts[c]}" for c in ordered))
    if r.retries or r.nondet_reruns:
        out.append(f"fault handling     : {r.retries} transient retries, "
                   f"{r.nondet_reruns} nondeterminism re-runs")
    if r.tests_replayed:
        out.append(f"journal resume     : {r.tests_replayed} verdicts "
                   f"replayed from the session journal")
    if r.worker_errors:
        out.append(f"worker failures    : {len(r.worker_errors)} survived")
        for err in r.worker_errors:
            out.append(f"  {err}")
    if r.analysis_builds:
        built = ", ".join(f"{name} {n}" for name, n in
                          sorted(r.analysis_builds.items()))
        out.append(f"analysis rebuilds  : {built}")
        if r.analysis_preserved_hits:
            avoided = ", ".join(f"{name} {n}" for name, n in
                                sorted(r.analysis_preserved_hits.items()))
            out.append(f"rebuilds avoided   : {avoided} "
                       f"(preserved across invalidation)")
    if r.unique_by_pass:
        out.append("unique queries by issuing pass:")
        total = sum(r.unique_by_pass.values())
        for name, n in sorted(r.unique_by_pass.items(),
                              key=lambda kv: -kv[1]):
            out.append(f"  {name:<28} {n:>6} ({100.0 * n / total:.1f}%)")
    if r.remarks:
        out.append("")
        out.append("optimization remarks (final compile):")
        out.extend(f"  {line}" for line in r.remarks)
    if r.phase_timers is not None:
        from ..trace.timer import render_tree
        out.append("")
        out.append(render_tree(r.phase_timers))
    if r.pessimistic_records or r.pessimistic_dump:
        out.append("")
        out.append("pessimistic queries (true aliases):")
        out.append(render_pessimistic_dump(report))
    return "\n".join(out)


def render_importance_report(report) -> str:
    """The human-readable importance-mining report: which safe
    optimistic answers measurably buy cycles, what each one is worth,
    and the transform it enables (an :class:`ImportanceReport`)."""
    r = report
    out: List[str] = []
    out.append(f"== ORAQL importance report: {r.config_name} ==")
    out.append(f"safe optimistic set: {r.safe_queries} of "
               f"{r.unique_queries} unique queries "
               f"({len(r.pessimistic_indices)} pinned pessimistic)")
    out.append(f"cycles             : baseline {r.baseline_cycles:.0f} "
               f"-> optimistic {r.optimal_cycles:.0f} "
               f"({r.total_savings:.0f} saved)")
    out.append(f"significance bar   : {r.significant_percent:g}% of "
               f"baseline = {r.threshold_cycles:.0f} cycles")
    if r.partial:
        out.append("MEASUREMENT BUDGET EXHAUSTED: partial result — the "
                   "important set below is the best known, not verified")
    out.append(f"important queries  : {len(r.important)} recover "
               f"{r.recovered_savings:.0f} cycles "
               f"({r.recovered_percent:.1f}% of the full win); "
               f"{len(r.dropped)} safe queries buy nothing")
    out.append(f"measurement effort : {r.compiles} compiles, "
               f"{r.measurements_run} VM runs, "
               f"{r.measurements_cached} served from the "
               f"executable-hash cache")
    if r.measurements_replayed:
        out.append(f"journal resume     : {r.measurements_replayed} "
                   f"measurements replayed from the session journal")
    if r.refinement_rounds:
        out.append(f"refinement         : {r.refinement_rounds} extra "
                   f"round(s) for non-additive interactions")
    if r.flip_failures:
        out.append(f"flip failures      : {r.flip_failures} candidates "
                   f"broke verification (treated as infinitely costly)")
    if r.unknown_opcodes or r.unknown_intrinsics:
        unpriced = {**r.unknown_opcodes, **r.unknown_intrinsics}
        out.append("UNPRICED OPERATIONS (cycle deltas are distorted): "
                   + ", ".join(f"{k} x{n}"
                               for k, n in sorted(unpriced.items())))
    if r.important:
        out.append("")
        out.append("important queries by measured value:")
        for q in r.important:
            out.extend("  " + line for line in q.describe().splitlines())
    if len(r.pareto) > 1:
        out.append("")
        out.append("Pareto front (cumulative, best-first):")
        for p in r.pareto:
            label = "(none)" if p.added is None else f"+q{p.added}"
            out.append(f"  k={p.k:<3} {label:<8} {p.cycles:>12.0f} cycles "
                       f"saved {p.cycles_saved:>10.0f} "
                       f"({p.percent_of_full:5.1f}% of full win)")
    return "\n".join(out)
