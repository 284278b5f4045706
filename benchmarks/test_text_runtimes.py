"""§V narrative — executed instructions and modelled run times.

Regenerates the per-benchmark instruction/cycle deltas the paper
reports in prose and asserts their qualitative shape: instruction
counts never grow under (almost-)perfect alias information, LULESH run
time stays flat, MiniGMG's ompif variant gains the most of its family,
and GridMini's device kernel gets *slower*.
"""

import os

import pytest

from repro.experiments.runtimes import PAPER_NOTES, RuntimeRow, render_runtimes
from repro.workloads.base import row_names

from conftest import RESULTS_DIR, save_result


@pytest.fixture(scope="module")
def runtime_rows(probed_reports):
    rows = []
    for name in row_names():
        rep = probed_reports[name]
        r0 = rep.baseline_program.run()
        r1 = rep.final_program.run()
        rows.append(RuntimeRow(
            name, r0.instructions, r1.instructions, r0.cycles, r1.cycles,
            sum(r0.kernel_cycles.values()), sum(r1.kernel_cycles.values()),
            PAPER_NOTES.get(name, "")))
    return rows


def _row(rows, name):
    return next(r for r in rows if r.config == name)


def test_runtime_table(benchmark, runtime_rows, once):
    """Regenerates the table and requires it byte-identical to the
    checked-in one: instruction and cycle counts are exact, so any
    difference is a change in what the programs compute or cost."""
    with open(os.path.join(RESULTS_DIR, "text_runtimes.txt")) as f:
        checked_in = f.read()
    table = once(benchmark, render_runtimes, runtime_rows)
    save_result("text_runtimes", table)
    print("\n" + table)
    assert table + "\n" == checked_in, (
        "regenerated benchmarks/results/text_runtimes.txt differs from "
        "the checked-in table (see git diff)")
    # inline shape checks (run under --benchmark-only)
    for r in runtime_rows:
        assert r.insts_oraql <= r.insts_orig * 1.01, r.config
    grid = _row(runtime_rows, "GridMini-offload")
    assert grid.kernel_cycles_oraql > grid.kernel_cycles_orig * 1.01
    ompif = _row(runtime_rows, "MiniGMG-ompif")
    assert ompif.cycles_oraql < ompif.cycles_orig * 0.98


def test_instructions_never_grow(runtime_rows):
    """Optimistic AA only removes work from the executed path."""
    for r in runtime_rows:
        assert r.insts_oraql <= r.insts_orig * 1.01, (
            r.config, r.insts_orig, r.insts_oraql)


def test_testsnap_seq_instructions_drop(runtime_rows):
    r = _row(runtime_rows, "TestSNAP-seq")
    assert r.insts_oraql < r.insts_orig  # paper: -1.2%


def test_minigmg_ompif_speeds_up_most(runtime_rows):
    """Paper §V-G: ompif ~8% faster; sse/omptask ~flat."""
    ompif = _row(runtime_rows, "MiniGMG-ompif")
    gain = 1.0 - ompif.cycles_oraql / ompif.cycles_orig
    assert gain > 0.02, f"ompif gained only {gain:.1%}"
    sse = _row(runtime_rows, "MiniGMG-sse")
    sse_gain = 1.0 - sse.cycles_oraql / sse.cycles_orig
    assert gain > sse_gain - 0.01


def test_gridmini_kernel_slows_down(runtime_rows):
    """Paper §V-C: ~7% slowdown on the device kernel — optimistic info
    raises register pressure past an occupancy cliff."""
    r = _row(runtime_rows, "GridMini-offload")
    assert r.kernel_cycles_orig > 0
    assert r.kernel_cycles_oraql > r.kernel_cycles_orig * 1.01, (
        r.kernel_cycles_orig, r.kernel_cycles_oraql)


def test_lulesh_runtime_flat(runtime_rows):
    """Paper §V-E: 18.66s vs 18.51s etc. — barely affected."""
    for name in ("LULESH-seq", "LULESH-openmp", "LULESH-mpi"):
        r = _row(runtime_rows, name)
        ratio = r.cycles_oraql / r.cycles_orig
        assert 0.80 <= ratio <= 1.05, (name, ratio)
