"""The alias memo referee on every row and strategy (slow tier).

A probing session of each of the 16 rows, under each strategy, runs
under ``tests/helpers.py`` ``alias_memo_referee``: every pointer
decomposition and underlying object the alias layer computes, reused
ones included, is computed again without the epoch memo, and every TBAA
verdict is checked against the parent-chain walk.  The session must see
no mismatch and give a plain session's answers: pessimistic set, final
executable, tests run and compiles.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tests"))

from helpers import alias_memo_referee  # noqa: E402
from repro.oraql.driver import ProbingDriver  # noqa: E402
from repro.oraql.strategies import strategy_names  # noqa: E402
from repro.workloads.base import get_config, row_names  # noqa: E402


def _answers(report):
    return (report.pessimistic_indices, report.final_exe_hash,
            report.tests_run, report.compiles)


@pytest.mark.parametrize("strategy", strategy_names())
@pytest.mark.parametrize("row", row_names())
def test_refereed_session_gives_the_plain_answers(row, strategy):
    cfg = get_config(row)
    plain = ProbingDriver(cfg, strategy=strategy).run()
    with alias_memo_referee() as counts:
        refereed = ProbingDriver(cfg, strategy=strategy).run()
    assert counts["mismatches"] == []
    assert counts["decompose hits"] > 0
    assert not refereed.failed, refereed.error
    assert _answers(refereed) == _answers(plain)
