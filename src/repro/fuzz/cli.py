"""``python -m repro.fuzz`` — the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seeds 500 --jobs 4
    python -m repro.fuzz --seeds 100 --self-test --jobs 4
    python -m repro.fuzz --seeds 10000 --jobs 8 --time-budget 1800 \\
        --cache-dir .fuzz-cache
    python -m repro.fuzz --seeds 50 --corpus-dir fuzz/corpus --self-test
    python -m repro.fuzz --chaos --chaos-injections 200 --jobs 4

Exit status is 0 when the campaign found no unexplained divergences
(and, under ``--self-test``, every injected-unsound sequence was caught
and shrunk), 1 otherwise.  Under ``--chaos`` the campaign instead
injects deterministic faults (compiler crashes, hangs, traps, session
kills, cache/journal truncation) into probing sessions and exits 0 only
when every fault was recovered from or reported with correct triage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..oraql.pool import WorkerLost
from .campaign import CampaignOptions, SeedResult, run_campaign


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the ORAQL pipeline: random "
                    "programs, a multi-config oracle (O0 interpretation "
                    "vs. full pipeline, fine invalidation vs. the "
                    "invalidate-everything referee, "
                    "pessimistic AA vs. ORAQL sequences), and a "
                    "delta-debugging reducer.")
    p.add_argument("--seeds", type=int, default=200, metavar="N",
                   help="number of seeds to fuzz (default 200)")
    p.add_argument("--seed-start", type=int, default=0, metavar="S",
                   help="first seed (campaigns are resumable by range)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes (1 = in-process)")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="wall-clock budget; the campaign reports partial "
                        "results when it runs out")
    p.add_argument("--self-test", action="store_true",
                   help="inject known-dangerous no-alias answers (hazard "
                        "templates) into every seed and require the "
                        "oracle to catch and the reducer to shrink them")
    p.add_argument("--hazard-rate", type=float, default=0.25,
                   metavar="P",
                   help="fraction of seeds biased towards overlapping "
                        "aliasing patterns (default 0.25)")
    p.add_argument("--opt-level", type=int, default=3, choices=[1, 2, 3],
                   help="optimization level under test (default 3)")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip delta-debugging of findings")
    p.add_argument("--max-reduce-trials", type=int, default=600,
                   metavar="N")
    p.add_argument("--max-tests", type=int, default=2_000, metavar="N",
                   help="probing-driver test budget per bisection")
    p.add_argument("--strategies", metavar="S1,S2,...|all",
                   help="probing strategies for the bisection referee: "
                        "'all' for every registered strategy, or a "
                        "comma-separated list; the first is the primary "
                        "and the rest are cross-checked against it per "
                        "divergent case (default: chunked only)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent verdict cache shared with the "
                        "probing drivers (same format as oraql "
                        "--cache-dir)")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="write minimized reproducers here "
                        "(fuzz/corpus is the checked-in regression set)")
    p.add_argument("--chaos", action="store_true",
                   help="run a fault-injection campaign instead of "
                        "differential fuzzing: seeded faults are planted "
                        "in probing sessions and every one must be "
                        "recovered or reported with correct triage")
    p.add_argument("--chaos-injections", type=int, default=64, metavar="N",
                   help="number of fault injections under --chaos "
                        "(default 64)")
    p.add_argument("--chaos-kinds", metavar="K1,K2,...",
                   help="comma-separated fault kinds to cycle through "
                        "under --chaos (default: all non-worker kinds)")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="suppress per-seed progress lines")
    return p


def _run_chaos(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from ..faults.chaos import (
        DEFAULT_CHAOS_KINDS,
        ChaosOptions,
        InjectionResult,
        run_chaos,
    )

    kinds = DEFAULT_CHAOS_KINDS
    if args.chaos_kinds:
        kinds = tuple(k.strip() for k in args.chaos_kinds.split(",")
                      if k.strip())
        unknown = sorted(set(kinds) - set(DEFAULT_CHAOS_KINDS))
        if unknown:
            parser.error(f"--chaos-kinds: unknown fault kind(s) "
                         f"{', '.join(unknown)} (choose from "
                         f"{', '.join(DEFAULT_CHAOS_KINDS)})")
    opts = ChaosOptions(injections=args.chaos_injections,
                        seed_start=args.seed_start, jobs=args.jobs,
                        kinds=kinds, time_budget=args.time_budget)

    done = 0

    def progress(r: InjectionResult) -> None:
        nonlocal done
        done += 1
        if args.quiet:
            return
        tag = r.outcome.upper() if not r.ok else r.outcome
        print(f"seed {r.seed:>6}: {done}/{opts.injections} "
              f"{r.kind}@{r.at} on {r.workload}/{r.strategy}: {tag} "
              f"({r.elapsed:.2f}s)", file=sys.stderr)

    try:
        report = run_chaos(opts, progress=progress)
    except WorkerLost as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1 (got {args.seeds})")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")
    if not (0.0 <= args.hazard_rate <= 1.0):
        parser.error("--hazard-rate must be within [0, 1]")
    if args.cache_dir and os.path.exists(args.cache_dir) \
            and not os.path.isdir(args.cache_dir):
        parser.error(f"--cache-dir is not a directory: {args.cache_dir}")
    if args.chaos_injections < 1:
        parser.error(f"--chaos-injections must be >= 1 "
                     f"(got {args.chaos_injections})")

    strategies = None
    if args.strategies:
        from ..oraql.strategies import strategy_names
        if args.strategies.strip() == "all":
            strategies = strategy_names()
        else:
            strategies = [s.strip() for s in args.strategies.split(",")
                          if s.strip()]
            unknown = sorted(set(strategies) - set(strategy_names()))
            if unknown:
                parser.error(f"--strategies: unknown strategy(ies) "
                             f"{', '.join(unknown)} (choose from "
                             f"{', '.join(strategy_names())})")

    if args.chaos:
        return _run_chaos(args, parser)

    opts = CampaignOptions(
        seeds=args.seeds, seed_start=args.seed_start, jobs=args.jobs,
        time_budget=args.time_budget, self_test=args.self_test,
        hazard_rate=args.hazard_rate, opt_level=args.opt_level,
        reduce=not args.no_reduce,
        max_reduce_trials=args.max_reduce_trials,
        max_tests=args.max_tests, cache_dir=args.cache_dir,
        corpus_dir=args.corpus_dir, strategies=strategies)

    done = 0

    def progress(r: SeedResult) -> None:
        nonlocal done
        done += 1
        if args.quiet:
            return
        flags = []
        if r.optimism_divergent:
            flags.append("caught" if r.optimism_caught else "UNCAUGHT")
        if r.reduced_size:
            flags.append(f"reduced {r.original_size}->{r.reduced_size}")
        if not r.clean:
            flags.append("FINDING: " + ", ".join(
                f["kind"] for f in r.findings))
        tag = f" [{'; '.join(flags)}]" if flags else ""
        print(f"seed {r.seed:>6}: {done}/{args.seeds}"
              f" ({r.elapsed:.2f}s){tag}", file=sys.stderr)

    try:
        report = run_campaign(opts, progress=progress)
    except WorkerLost as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
