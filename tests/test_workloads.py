"""Workload tests: every Fig. 4 configuration compiles, runs
deterministically, and matches the paper's qualitative behaviour under
ORAQL.  The full-probe shape checks are the slowest tests in the suite
(each runs the probing driver end to end)."""

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.oraql import Compiler, DecisionSequence, ProbingDriver
from repro.workloads.base import get_config, get_info, row_names

ALL_ROWS = row_names()

#: paper expectation: which configurations are fully optimistic (Fig. 4)
FULLY_OPTIMISTIC = {
    "TestSNAP-seq", "TestSNAP-kokkos-cuda", "GridMini-offload",
    "Quicksilver-openmp", "MiniGMG-ompif", "MiniGMG-omptask", "MiniGMG-sse",
}
NEEDS_PESSIMISTIC = set(ALL_ROWS) - FULLY_OPTIMISTIC


def test_sixteen_configurations_registered():
    assert len(ALL_ROWS) == 16
    benchmarks = {get_info(r).benchmark for r in ALL_ROWS}
    assert benchmarks == {"TestSNAP", "XSBench", "GridMini", "Quicksilver",
                          "LULESH", "MiniFE", "MiniGMG"}


@pytest.mark.parametrize("row", ALL_ROWS)
def test_baseline_compiles_and_runs(row):
    cfg = get_config(row)
    prog = Compiler().compile(cfg, oraql_enabled=False)
    r = prog.run()
    assert r.ok, f"{row}: {r.state} {r.error}"
    assert r.stdout.strip(), "benchmarks must print verification output"


@pytest.mark.parametrize("row", ALL_ROWS)
def test_baseline_deterministic(row):
    cfg = get_config(row)
    out = [Compiler().compile(cfg, oraql_enabled=False).run().stdout
           for _ in range(2)]
    assert out[0] == out[1]


@pytest.mark.parametrize("row", ALL_ROWS)
def test_compilation_deterministic(row):
    """Same config + same sequence => bit-identical executable (the
    property the driver's hash cache depends on)."""
    cfg = get_config(row)
    h = [Compiler().compile(cfg, oraql_enabled=True,
                            sequence=DecisionSequence([1, 0, 1])).exe_hash
         for _ in range(2)]
    assert h[0] == h[1]


@pytest.mark.parametrize("row", sorted(FULLY_OPTIMISTIC))
def test_fully_optimistic_configs(row):
    rep = ProbingDriver(get_config(row)).run()
    assert rep.fully_optimistic, rep.summary()
    assert rep.pess_unique == 0
    assert rep.no_alias_oraql > rep.no_alias_original


@pytest.mark.parametrize("row", sorted(NEEDS_PESSIMISTIC))
def test_pessimistic_configs(row):
    rep = ProbingDriver(get_config(row)).run()
    assert not rep.fully_optimistic, rep.summary()
    assert rep.pess_unique >= 1
    assert rep.opt_unique > rep.pess_unique  # most queries stay optimistic


def test_xsbench_pessimistic_queries_identical_across_variants():
    """Paper §V-B: the pessimistic queries are the same in all three
    XSBench variants — they all involve pick_mat's dist[12]."""
    per_variant = {}
    for row in ("XSBench-seq", "XSBench-openmp", "XSBench-cuda-thrust"):
        rep = ProbingDriver(get_config(row)).run()
        sigs = sorted((r.scope, r.issuing_pass)
                      for r in rep.pessimistic_records)
        per_variant[row] = (rep.pess_unique, sigs)
    vals = list(per_variant.values())
    assert vals[0] == vals[1] == vals[2]
    scopes = {s for _, sigs in vals for s, _ in sigs}
    assert scopes <= {"dist_smooth", "dist_blend", "dist_total",
                      "dist_scale", "dist_clamp", "pick_mat"}


def test_testsnap_openmp_dump_matches_fig3_shape():
    rep = ProbingDriver(get_config("TestSNAP-openmp")).run()
    recs = rep.pessimistic_records
    assert recs
    # all pessimistic queries sit in the outlined parallel region
    assert all("omp_outlined" in r.scope for r in recs)


def test_gridmini_probing_restricted_to_device():
    rep = ProbingDriver(get_config("GridMini-offload")).run()
    final = rep.final_program
    # every ORAQL query came from an nvptx function
    for rec in final.oraql.records:
        pass  # scopes recorded below
    scopes = {r.scope for r in final.oraql.records}
    module = final.module
    for scope in scopes:
        assert module.functions[scope].target == "nvptx"


def test_lulesh_probe_scope_limited_to_timed_functions():
    rep = ProbingDriver(get_config("LULESH-seq")).run()
    scopes = {r.scope.split(".omp_outlined")[0]
              for r in rep.final_program.oraql.records}
    allowed = {"CalcForceForNodes", "CalcVelocityForNodes",
               "CalcPositionForNodes", "CalcEnergyForElems",
               "LagrangeLeapFrog"}
    assert scopes <= allowed


def test_lulesh_mpi_runs_four_ranks():
    cfg = get_config("LULESH-mpi")
    assert cfg.nranks == 4
    r = Compiler().compile(cfg, oraql_enabled=False).run()
    assert r.ok
    assert "MPI, 4 ranks" in r.stdout


def test_testsnap_kokkos_kernels_present():
    cfg = get_config("TestSNAP-kokkos-cuda")
    prog = Compiler().compile(cfg, oraql_enabled=False)
    assert len(prog.kernel_info) >= 6
    r = prog.run()
    assert set(r.kernel_cycles) == set(prog.kernel_info)


def test_output_filters_mask_timing():
    cfg = get_config("TestSNAP-seq")
    from repro.oraql import VerificationScript
    v = VerificationScript(["grind time <T>"], cfg.output_filters)
    assert v.check_output("grind time 0.123 msec/atom-step")
    assert v.check_output("grind time 9.999 msec/atom-step")
