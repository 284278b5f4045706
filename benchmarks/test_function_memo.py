"""The function memo on every row and strategy (slow tier).

* The referee (``tests/helpers.py`` ``memo_referee``): every compile of
  a plain session, of all 16 rows under both strategies, built once
  through a shared compiler (served by its function memo) and once by
  a fresh compiler, must agree in everything
  :func:`repro.fuzz.oracle.compile_fingerprint` reads.
* The premise the memo rests on, over the chunked sessions of the nine
  rows that bisect: a function that gets the same ORAQL answers, in the
  same order, as in an earlier compile of the session comes out with
  the same body hash.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tests"))

from helpers import (  # noqa: E402
    answer_premise,
    memo_referee,
    session_sequences,
)
from repro.oraql.strategies import strategy_names  # noqa: E402
from repro.workloads.base import get_config, row_names  # noqa: E402


@pytest.mark.parametrize("strategy", strategy_names())
@pytest.mark.parametrize("row", row_names())
def test_memo_compiles_equal_fresh_compiles(row, strategy):
    cfg = get_config(row)
    assert memo_referee(cfg, session_sequences(cfg, strategy)) == []


@pytest.mark.parametrize("row", row_names())
def test_equal_answers_give_equal_function_hashes(row):
    cfg = get_config(row)
    sequences = session_sequences(cfg)
    if len(sequences) <= 2:
        pytest.skip("fully optimistic: the baseline and one probe")
    repeats, mismatches = answer_premise(cfg, sequences)
    assert repeats > 0
    assert mismatches == []
