"""The final program is the last passing probe's, on every Fig. 4 row
and both strategies (slow tier).

The compile-anyway referee (``tests/helpers.py``
``final_reuse_checking_driver``) compiles the final sequence anyway
whenever the driver reuses a probe's program, and asserts that the
fresh compile equals the reused program on everything read from it:
``exe_hash``, ``fn_hashes``, statistics, kernel info, the no-alias
count, the ORAQL counters, queries by pass, the rendered pessimistic
records, and one run's stdout and cycles.  Every cold session reuses
its last passing probe.
``tests/test_final_reuse.py`` runs the referee on two cheap rows,
traced and untraced.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tests"))

from helpers import final_reuse_checking_driver  # noqa: E402
from repro.oraql.strategies import strategy_names  # noqa: E402
from repro.workloads.base import get_config, row_names  # noqa: E402


@pytest.mark.parametrize("strategy", strategy_names())
@pytest.mark.parametrize("row", row_names())
def test_reused_final_program_equals_a_fresh_compile(row, strategy):
    driver = final_reuse_checking_driver(get_config(row), strategy=strategy)
    report = driver.run()
    assert driver.checked == 1
    assert report.final_reused is not None
