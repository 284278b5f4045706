"""Shared probing results for the benchmark harness.

Several figures need the same per-configuration probing runs (Fig. 4's
query statistics, Fig. 6's pass-statistics deltas, the §V runtime
table), so the sweep is done once per session and shared.

Every benchmark writes its regenerated table to
``benchmarks/results/<name>.txt`` so the paper-facing artifacts survive
the run.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.oraql import ProbingDriver, ProbingReport
from repro.workloads.base import get_config, row_names

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return path


@pytest.fixture(scope="session")
def probed_reports() -> Dict[str, ProbingReport]:
    """Probe every Fig. 4 configuration once (chunked strategy)."""
    reports: Dict[str, ProbingReport] = {}
    for row in row_names():
        t0 = time.time()
        reports[row] = ProbingDriver(get_config(row)).run()
        reports[row].wall_seconds = time.time() - t0
    return reports


@pytest.fixture(scope="session")
def once():
    """Helper to run a benchmark body exactly once under
    pytest-benchmark (probing is far too heavy to repeat)."""

    def _once(benchmark, fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
