"""Parallel probing engine: wall-clock improvement and verdict reuse.

The table saved to ``results/parallel_probing.txt`` holds the test and
cache-hit counts only; the wall-clock times depend on the host and are
printed instead.

Probes every Fig. 4 configuration with the parallel engine (`--jobs 4`,
one worker per configuration) against a shared persistent verdict
cache, twice:

* the **cold** sweep must produce bit-identical ``pessimistic_indices``
  to the sequential driver on every workload while finishing faster
  than the sequential sweep's summed wall time (when the host grants
  more than one CPU);
* the **warm** sweep must serve verdicts from the persistent cache
  (hits > 0, strictly fewer ``tests_run``) and still agree bit-exactly.
"""

import os
import time

import pytest

from repro.experiments.tables import render_table
from repro.oraql.parallel import ParallelProbingDriver
from repro.workloads.base import get_config, row_names

from conftest import save_result

JOBS = 4


@pytest.fixture(scope="module")
def parallel_sweeps(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("verdict-cache"))
    names = row_names()
    configs = [get_config(name) for name in names]

    t0 = time.time()
    cold = ParallelProbingDriver(configs, jobs=JOBS,
                                 cache_dir=cache_dir).run()
    cold_wall = time.time() - t0

    t0 = time.time()
    warm = ParallelProbingDriver(configs, jobs=JOBS,
                                 cache_dir=cache_dir).run()
    warm_wall = time.time() - t0
    return names, cold, warm, cold_wall, warm_wall


def test_parallel_bit_identical_to_sequential(probed_reports,
                                              parallel_sweeps):
    names, cold, warm, _, _ = parallel_sweeps
    for name, cold_rep, warm_rep in zip(names, cold, warm):
        seq_rep = probed_reports[name]
        assert cold_rep.pessimistic_indices == seq_rep.pessimistic_indices, \
            f"{name}: cold parallel diverged from sequential"
        assert warm_rep.pessimistic_indices == seq_rep.pessimistic_indices, \
            f"{name}: warm parallel diverged from sequential"
        assert cold_rep.fully_optimistic == seq_rep.fully_optimistic


def test_warm_run_reuses_verdicts(parallel_sweeps):
    names, cold, warm, _, _ = parallel_sweeps
    for name, cold_rep, warm_rep in zip(names, cold, warm):
        assert warm_rep.cache_hits > 0, f"{name}: warm run hit nothing"
        assert warm_rep.tests_run < cold_rep.tests_run, \
            f"{name}: warm run did not save tests " \
            f"({warm_rep.tests_run} vs {cold_rep.tests_run})"


def test_parallel_wall_clock(benchmark, probed_reports, parallel_sweeps,
                             once):
    names, cold, warm, cold_wall, warm_wall = parallel_sweeps
    seq_wall = sum(getattr(probed_reports[n], "wall_seconds", 0.0)
                   for n in names)

    # the checked-in table holds counts only, so a run on any host
    # rewrites it unchanged; the wall-clock times are printed
    rows = [[n, c.tests_run, w.tests_run, w.cache_hits]
            for n, c, w in zip(names, cold, warm)]
    rows.append(["TOTAL", sum(c.tests_run for c in cold),
                 sum(w.tests_run for w in warm),
                 sum(w.cache_hits for w in warm)])
    table = render_table(
        ["Configuration", "cold tests", "warm tests", "warm hits"],
        rows, title=f"Parallel probing engine (jobs={JOBS}) — verdict reuse")
    save_result("parallel_probing", table)
    print("\n" + table)
    print(f"wall clock: sequential {seq_wall:.2f}s, cold {cold_wall:.2f}s, "
          f"warm {warm_wall:.2f}s")

    once(benchmark, lambda: None)  # timings measured above, once per session
    # the warm sweep serves verdicts from the cache, so it must beat the
    # cold one regardless of how many CPUs the host grants us
    assert warm_wall < cold_wall, \
        f"warm sweep ({warm_wall:.1f}s) no faster than cold " \
        f"({cold_wall:.1f}s)"
    # the fan-out itself can only beat the summed sequential sweep when
    # there is actual parallelism to exploit
    if len(os.sched_getaffinity(0)) >= 2:
        assert cold_wall < seq_wall, \
            f"parallel sweep ({cold_wall:.1f}s) slower than sequential " \
            f"({seq_wall:.1f}s)"
