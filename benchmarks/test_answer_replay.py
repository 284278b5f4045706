"""Answer replay on every bisecting Fig. 4 row (slow tier).

* The compile-anyway referee (``tests/helpers.py``
  ``replay_checking_driver``) on the nine rows that need bisection: a
  cold session (in-session replays) and a warm one (replays from the
  verdict cache's answer records), every replayed probe compiled
  anyway and checked against the executable the memo named, and both
  sessions finding the plain session's answers.
* The frequency strategy's LULESH-mpi combinations of the tier-1
  product test (``tests/test_answer_replay.py``), which are too slow
  for tier 1.
"""

from __future__ import annotations

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tests"))

from helpers import (  # noqa: E402
    ReplaySessions,
    check_replay_combination,
    replay_answers,
    replay_case_id,
    replay_checking_driver,
)
from repro.oraql.cache import VerdictCache  # noqa: E402
from repro.workloads.base import get_config, row_names  # noqa: E402


def test_nine_rows_bisect(probed_reports):
    bisecting = [row for row, rep in probed_reports.items()
                 if not rep.fully_optimistic]
    assert len(bisecting) == 9, bisecting


@pytest.mark.parametrize("row", row_names())
def test_replayed_probes_build_the_memos_executable(probed_reports,
                                                     tmp_path, row):
    plain = probed_reports[row]
    if plain.fully_optimistic:
        pytest.skip("fully optimistic: no probe to replay but the first")
    for session in ("cold", "warm"):
        driver = replay_checking_driver(
            get_config(row), verdict_cache=VerdictCache(str(tmp_path)))
        report = driver.run()
        assert replay_answers(report) == replay_answers(plain), session
        assert driver.checked == report.compiles_skipped, session
        if session == "warm":
            assert report.compiles == 2 and report.tests_run == 0
            assert driver.checked == report.tests_cached


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    return ReplaySessions(str(tmp_path_factory.mktemp("replay")))


@pytest.mark.parametrize(
    "case",
    [("LULESH-mpi", "frequency") + rest for rest in itertools.product(
        (False, True), ("none", "cold", "warm"), ("fresh", "resumed"))],
    ids=replay_case_id)
def test_frequency_lulesh_combinations(sessions, case):
    check_replay_combination(sessions, case)
