"""``oraql`` command-line interface.

Mirrors the paper's driver invocation: a benchmark configuration (JSON,
or a bundled workload name like ``TestSNAP-openmp``), a probing
strategy, and optional dump flags.

Examples::

    oraql --list
    oraql --workload XSBench-seq
    oraql --workload TestSNAP-openmp --dump-pessimistic --dump-first
    oraql --config my_benchmark.json --strategy frequency
    oraql --fig 4          # regenerate a paper table/figure
    oraql importance --workload MiniGMG-omptask --significant-percent 2
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


#: subcommand name -> entry point taking the remaining argv; a bare
#: first argument that is none of these is refused with exit status 2
#: and a usage message naming them (never an attribute traceback)
SUBCOMMANDS = ("importance", "fit-prior")


def _resolve_workload(parser: argparse.ArgumentParser, name: str):
    """A workload row by name, or a structured parser error (exit 2)
    naming the known rows — never a raw ``KeyError`` traceback."""
    from ..workloads.base import get_config, row_names
    try:
        return get_config(name)
    except KeyError:
        parser.error(f"unknown workload {name!r} "
                     f"(known: {', '.join(row_names())}; "
                     f"see 'oraql --list')")


def _add_strategy_option(p: argparse.ArgumentParser,
                         help: str = "probing strategy") -> None:
    """The ``--strategy`` option, choices derived from the strategy
    registry — the single place both the ``oraql`` and ``importance``
    parsers get it from, so registering a strategy surfaces it in every
    CLI at once.  argparse turns an unknown name into a structured
    exit-2 error naming the registered strategies."""
    from .strategies import strategy_names
    p.add_argument("--strategy", choices=strategy_names(),
                   default="chunked", help=help)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oraql",
        description="ORAQL: find (almost) perfect alias information for a "
                    "benchmark by optimistic probing.")
    p.add_argument("--config", help="benchmark configuration JSON file")
    p.add_argument("--workload", help="bundled workload row name "
                                      "(see --list)")
    p.add_argument("--list", action="store_true",
                   help="list bundled workload configurations")
    _add_strategy_option(p)
    p.add_argument("--fig", choices=["2", "3", "4", "5", "5m", "6", "7",
                                     "runtimes"],
                   help="regenerate a paper table/figure ('5m' is the "
                        "measured Fig. 5 versions table from importance "
                        "mining)")
    p.add_argument("--dump-first", action="store_true")
    p.add_argument("--dump-cached", action="store_true")
    p.add_argument("--dump-optimistic", action="store_true")
    p.add_argument("--dump-pessimistic", action="store_true")
    p.add_argument("--max-tests", type=int, default=10_000)
    p.add_argument("--verify-analyses", action="store_true",
                   help="recompute DominatorTree/LoopInfo after every "
                        "pass that claims to preserve them and abort on "
                        "a mismatch (catches passes lying about "
                        "preservation; slow)")
    p.add_argument("--invalidation", choices=["fine", "coarse"],
                   default="fine",
                   help="analysis invalidation mode: 'fine' keeps "
                        "preserved analyses alive across passes, "
                        "'coarse' replicates the legacy invalidate-"
                        "everything behavior (for differential runs)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes for probing several "
                        "configurations at once (--fig 4); one "
                        "configuration is always probed sequentially")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="directory for the persistent verdict cache, "
                        "shared across configs, strategies, and runs")
    p.add_argument("--compact-cache", action="store_true",
                   help="compact the verdict cache under --cache-dir "
                        "(drop superseded/corrupt records) and exit")
    p.add_argument("--journal", metavar="DIR",
                   help="directory for append-only session journals; "
                        "every probe verdict is checkpointed so a "
                        "killed session can be resumed with --resume")
    p.add_argument("--resume", action="store_true",
                   help="replay the session journal under --journal "
                        "before probing: the resumed session retraces "
                        "the interrupted one bit-identically, serving "
                        "journaled verdicts from cache")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retry budget for transient test-infrastructure "
                        "faults (default 2)")
    p.add_argument("--test-fuel", type=int, default=None, metavar="N",
                   help="per-test instruction budget override (a "
                        "runaway miscompile becomes a step-limit "
                        "verdict instead of a stuck driver)")
    p.add_argument("--test-wall-clock", type=float, default=None,
                   metavar="SEC",
                   help="per-test wall-clock budget in seconds "
                        "(unset = deterministic unbounded runs)")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the query-provenance event log (JSONL) "
                        "for the whole probing session; inspect with "
                        "'python -m repro.trace summarize FILE'")
    p.add_argument("--trace-chrome", metavar="FILE",
                   help="write a Chrome trace_event JSON for the session "
                        "(loadable in Perfetto / chrome://tracing)")
    p.add_argument("--time-passes", action="store_true",
                   help="collect and print the hierarchical phase-timing "
                        "report (frontend/passes/codegen/vm-run, "
                        "per-pass self vs. children)")
    p.add_argument("--remarks", action="store_true",
                   help="print optimization remarks from the final "
                        "compile, each linked to the ORAQL query "
                        "indices that enabled the transform")
    return p


def build_importance_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oraql importance",
        description="Second-phase importance mining: bisect the safe "
                    "optimistic set by measured cycle delta to find the "
                    "queries whose optimism actually buys cycles.")
    p.add_argument("--config", help="benchmark configuration JSON file")
    p.add_argument("--workload", help="bundled workload row name "
                                      "(see 'oraql --list')")
    _add_strategy_option(p, help="probing strategy for phase 1")
    p.add_argument("--significant-percent", type=float, default=2.0,
                   metavar="PCT",
                   help="significance bar: a flip is important when it "
                        "costs more than PCT%% of baseline cycles "
                        "(default 2, the original driver's "
                        "significant_percentage)")
    p.add_argument("--recover-percent", type=float, default=95.0,
                   metavar="PCT",
                   help="refinement target: keep mining until the "
                        "important set alone recovers PCT%% of the full "
                        "optimism win (default 95)")
    p.add_argument("--max-tests", type=int, default=10_000,
                   help="phase-1 probing test budget")
    p.add_argument("--max-measurements", type=int, default=2000,
                   help="phase-2 cycle-measurement budget (VM runs; "
                        "cache hits are free)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="directory for the persistent verdict cache")
    p.add_argument("--journal", metavar="DIR",
                   help="directory for append-only session journals "
                        "(probing verdicts and cycle measurements)")
    p.add_argument("--resume", action="store_true",
                   help="replay both session journals under --journal: "
                        "the resumed run retraces the interrupted one "
                        "bit-identically, measurements served from cache")
    p.add_argument("--retries", type=int, default=2, metavar="N")
    p.add_argument("--test-fuel", type=int, default=None, metavar="N")
    p.add_argument("--test-wall-clock", type=float, default=None,
                   metavar="SEC")
    p.add_argument("--lenient-cost", action="store_true",
                   help="price unknown opcodes/intrinsics with default "
                        "costs instead of crashing (measurements may be "
                        "distorted; the report flags what was unpriced)")
    return p


def importance_main(argv: Optional[List[str]] = None) -> int:
    parser = build_importance_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal DIR")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0 (got {args.retries})")
    if args.significant_percent < 0:
        parser.error("--significant-percent must be >= 0")
    if not 0 < args.recover_percent <= 100:
        parser.error("--recover-percent must be in (0, 100]")

    from .config import BenchmarkConfig
    if args.workload:
        cfg = _resolve_workload(parser, args.workload)
    elif args.config:
        with open(args.config) as f:
            cfg = BenchmarkConfig.from_json(f.read())
    else:
        print("error: one of --config / --workload is required",
              file=sys.stderr)
        return 2

    from .cache import VerdictCache
    from .errors import ProbingError
    from .executor import ExecutorPolicy
    from .importance import ImportanceDriver
    from .report import render_importance_report
    policy = ExecutorPolicy(fuel=args.test_fuel,
                            wall_clock=args.test_wall_clock,
                            retries=args.retries)
    cache = VerdictCache(args.cache_dir) if args.cache_dir else None
    try:
        report = ImportanceDriver(
            cfg, strategy=args.strategy,
            significant_percent=args.significant_percent,
            recover_percent=args.recover_percent,
            max_tests=args.max_tests,
            max_measurements=args.max_measurements,
            policy=policy, verdict_cache=cache,
            journal_dir=args.journal, resume=args.resume,
            strict_cost=not args.lenient_cost).run()
    except ProbingError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.explain:
            print(e.explain, file=sys.stderr)
        return 1
    print(render_importance_report(report))
    return 0


def build_fit_prior_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oraql fit-prior",
        description="Fit the provenance-prior danger model on "
                    "fuzz-campaign traces and write the versioned "
                    "coefficient artifact the 'provenance-prior' "
                    "strategy loads.")
    p.add_argument("--seeds", type=int, default=200, metavar="N",
                   help="how many fuzz seeds to mine (default 200)")
    p.add_argument("--start", type=int, default=0, metavar="N",
                   help="first seed (default 0)")
    p.add_argument("--opt-level", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--epochs", type=int, default=300,
                   help="gradient-descent epochs (default 300)")
    p.add_argument("--max-tests", type=int, default=2000,
                   help="probing budget per divergent seed")
    p.add_argument("--out", metavar="FILE",
                   help="artifact path (default: the checked-in "
                        "strategies/prior_model.json)")
    p.add_argument("--quiet", action="store_true")
    return p


def fit_prior_main(argv: Optional[List[str]] = None) -> int:
    parser = build_fit_prior_parser()
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1 (got {args.seeds})")
    from .strategies.fit import fit_prior
    model, stats = fit_prior(seeds=range(args.start,
                                         args.start + args.seeds),
                             opt_level=args.opt_level,
                             epochs=args.epochs,
                             max_tests=args.max_tests,
                             log=(None if args.quiet
                                  else lambda s: print(s,
                                                       file=sys.stderr)))
    from .strategies.prior import DEFAULT_MODEL_PATH
    out = args.out or DEFAULT_MODEL_PATH
    model.save(out)
    print(f"prior model written to {out}: "
          f"{stats['samples']} samples ({stats['positives']} dangerous) "
          f"from {stats['programs']} programs "
          f"({stats['divergent']} divergent), "
          f"train AUC {stats['auc']:.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] and not argv[0].startswith("-"):
        if argv[0] == "importance":
            return importance_main(argv[1:])
        if argv[0] == "fit-prior":
            return fit_prior_main(argv[1:])
        print(f"error: unknown subcommand {argv[0]!r} "
              f"(known: {', '.join(SUBCOMMANDS)})", file=sys.stderr)
        print("usage: oraql [SUBCOMMAND] [OPTIONS]; "
              "see 'oraql --help'", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")
    if args.cache_dir and os.path.exists(args.cache_dir) \
            and not os.path.isdir(args.cache_dir):
        parser.error(f"--cache-dir is not a directory: {args.cache_dir}")
    if args.resume and not args.journal:
        parser.error("--resume requires --journal DIR")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0 (got {args.retries})")

    if args.compact_cache:
        if not args.cache_dir:
            parser.error("--compact-cache requires --cache-dir DIR")
        from .cache import VerdictCache
        cache = VerdictCache(args.cache_dir)
        before, after = cache.compact()
        stats = cache.stats()
        print(f"compacted {stats['path']}: {before} lines -> {after} "
              f"records")
        return 0

    if args.list:
        from ..workloads.base import get_info, row_names
        for name in row_names():
            info = get_info(name)
            print(f"{name:<28} {info.programming_model:<22} "
                  f"[{info.source_files}]")
        return 0

    if args.fig:
        return _run_fig(args.fig, jobs=args.jobs, cache_dir=args.cache_dir)

    from .config import BenchmarkConfig
    from .driver import ProbingDriver
    from .report import render_report

    if args.workload:
        cfg = _resolve_workload(parser, args.workload)
    elif args.config:
        with open(args.config) as f:
            cfg = BenchmarkConfig.from_json(f.read())
    else:
        print("error: one of --config / --workload / --list / --fig "
              "is required", file=sys.stderr)
        return 2

    from .cache import VerdictCache
    from .compiler import Compiler
    from .errors import ProbingError
    from .executor import ExecutorPolicy
    from .journal import SessionJournal
    compiler = Compiler(verify_analyses=args.verify_analyses,
                        invalidation=args.invalidation)
    policy = ExecutorPolicy(fuel=args.test_fuel,
                            wall_clock=args.test_wall_clock,
                            retries=args.retries)

    trace = None
    wants_events = bool(args.trace_out or args.trace_chrome or args.remarks)
    if wants_events or args.time_passes:
        from ..trace import QueryTrace
        # --time-passes alone runs the cheaper timer-only sink
        trace = QueryTrace(record_events=wants_events)

    try:
        # one configuration is bisected sequentially, in this process
        # (--jobs fans out only across configurations, e.g. --fig 4)
        report = ProbingDriver(
            cfg, compiler=compiler, strategy=args.strategy,
            max_tests=args.max_tests, policy=policy, trace=trace,
            verdict_cache=(VerdictCache(args.cache_dir)
                           if args.cache_dir else None),
            journal=(SessionJournal.for_config(args.journal, cfg,
                                               args.strategy,
                                               resume=args.resume)
                     if args.journal else None)).run()
    except ProbingError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.explain:
            print(e.explain, file=sys.stderr)
        return 1

    if trace is not None:
        if not args.time_passes:
            report.phase_timers = None
        if not args.remarks:
            report.remarks = []
        from ..trace import export as trace_export
        if args.trace_out:
            trace_export.write_jsonl(args.trace_out, trace.records)
            print(f"trace written to {args.trace_out}", file=sys.stderr)
        if args.trace_chrome:
            trace_export.write_chrome(args.trace_chrome, trace.records,
                                      trace.timer.to_dict())
            print(f"chrome trace written to {args.trace_chrome}",
                  file=sys.stderr)

    print(render_report(report))
    return 0


def _run_fig(which: str, jobs: int = 1,
             cache_dir: Optional[str] = None) -> int:
    from .. import experiments as ex

    if which == "2":
        print(ex.render_fig2(ex.run_fig2()))
    elif which == "3":
        print(ex.run_fig3())
    elif which == "4":
        print(ex.render_fig4(ex.run_fig4(jobs=jobs, cache_dir=cache_dir)))
    elif which == "5":
        print(ex.render_fig5())
    elif which == "5m":
        print(ex.render_fig5_importance_many(
            ex.run_fig5_importance(cache_dir=cache_dir)))
    elif which == "6":
        print(ex.render_fig6(ex.run_fig6()))
    elif which == "7":
        print(ex.render_fig7(ex.run_fig7()))
    elif which == "runtimes":
        print(ex.render_runtimes(ex.run_runtimes()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
