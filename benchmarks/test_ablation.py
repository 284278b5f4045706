"""Ablation benches for the design choices DESIGN.md calls out.

1. the ORAQL query cache (paper §IV-A): how much does caching shorten
   the decision sequence the driver has to probe?
2. the executable-hash test cache (paper §IV-B): how many test runs does
   it save on real workloads?
3. chunked vs. frequency probing on a *real* workload (Fig. 2 shows the
   synthetic case);
4. the value of the existing AA chain (paper §VIII, override mode):
   what does suppressing every chain answer cost?
"""

import repro.workloads  # noqa: F401
from repro.oraql import (
    DecisionSequence,
    OraqlAAPass,
    ProbingDriver,
    measure_chain_value,
)
from repro.workloads.base import get_config

from conftest import save_result


def _sequence_consumption(row: str, cache_enabled: bool) -> int:
    cfg = get_config(row)
    from repro.frontend import compile_source
    from repro.passes import CompilationContext, PassManager, build_pipeline

    modules = [compile_source(s.text, s.name) for s in cfg.sources]
    main = modules[0]
    for other in modules[1:]:
        main.link(other)
    p = OraqlAAPass(DecisionSequence(),
                    target_filter=cfg.target_filter,
                    probe_functions=cfg.probe_function_set(),
                    probe_files=cfg.probe_file_set(),
                    cache_enabled=cache_enabled)
    ctx = CompilationContext(main, oraql=p)
    PassManager(ctx).run(build_pipeline(cfg.opt_level))
    return p.sequence.consumed


def test_query_cache_ablation(benchmark, once):
    """Without the pair cache, every repeated query consumes a sequence
    entry — the probing search space explodes (paper §IV-A)."""

    def run():
        rows = {}
        for row in ("TestSNAP-openmp", "XSBench-seq", "Quicksilver-openmp"):
            with_cache = _sequence_consumption(row, True)
            without = _sequence_consumption(row, False)
            rows[row] = (with_cache, without)
        return rows

    rows = once(benchmark, run)
    lines = ["ORAQL query-cache ablation: sequence entries consumed",
             f"{'config':<22} {'cache on':>9} {'cache off':>10} {'x':>6}"]
    for row, (w, wo) in rows.items():
        lines.append(f"{row:<22} {w:>9} {wo:>10} {wo / max(1, w):>5.1f}x")
        assert wo > w, (row, w, wo)
    save_result("ablation_query_cache", "\n".join(lines))
    print("\n" + "\n".join(lines))


def test_exe_hash_cache_ablation(benchmark, once, probed_reports):
    """The executable-hash cache converts a large share of probing tests
    into lookups (paper §IV-B)."""
    total_run = sum(r.tests_run for r in probed_reports.values())
    total_cached = sum(r.tests_cached for r in probed_reports.values())
    lines = [
        "executable-hash test cache across the Fig. 4 sweep:",
        f"tests executed      : {total_run}",
        f"tests from the cache: {total_cached}",
        f"saved fraction      : {total_cached / max(1, total_run + total_cached):.1%}",
    ]
    once(benchmark, lambda: None)
    save_result("ablation_exe_hash_cache", "\n".join(lines))
    print("\n" + "\n".join(lines))
    assert total_cached > 0


def test_strategy_ablation_real_workload(benchmark, once):
    """Chunked vs. frequency probing on a real pessimistic workload."""

    def run():
        out = {}
        for strategy in ("chunked", "frequency"):
            rep = ProbingDriver(get_config("XSBench-seq"),
                                strategy=strategy).run()
            out[strategy] = (rep.tests_run + rep.tests_cached,
                             rep.pess_unique)
        return out

    out = once(benchmark, run)
    lines = ["probing strategies on XSBench-seq:",
             f"{'strategy':<12} {'tests':>6} {'pess found':>11}"]
    for strategy, (tests, pess) in out.items():
        lines.append(f"{strategy:<12} {tests:>6} {pess:>11}")
    save_result("ablation_strategy", "\n".join(lines))
    print("\n" + "\n".join(lines))
    # both converge to the same dangerous set
    assert out["chunked"][1] == out["frequency"][1]


def test_chain_value_override(benchmark, once):
    """§VIII override mode: force the chain's answers pessimistic and
    measure what the real analyses were worth."""

    def run():
        return [measure_chain_value(get_config(row))
                for row in ("Quicksilver-openmp", "MiniGMG-ompif",
                            "LULESH-seq")]

    reports = once(benchmark, run)
    lines = ["value of the existing AA chain (override mode, §VIII):"]
    for rep in reports:
        lines.append("  " + rep.summary())
        assert rep.no_alias_suppressed == 0
        assert rep.instructions_suppressed >= rep.instructions_normal
    save_result("ablation_chain_value", "\n".join(lines))
    print("\n" + "\n".join(lines))
