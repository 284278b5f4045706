"""Executable hashes, pinned: the compiler's answers on every row.

For each row of the Fig. 4 matrix, ``tests/goldens/exe_hashes.json``
holds the baseline program's (ORAQL off) and the all-optimistic
program's (ORAQL on, empty sequence) ``exe_hash`` and per-function
``fn_hashes``.  Any change to the compile path, the IR printer or the
hashing must leave them unchanged.

Each case compiles two rows with one :class:`Compiler`, and each row's
baseline twice (first and last), so a compile that starts from what an
earlier compile of the same sources left behind is checked as well as
a fresh one.  Regenerate only for a change that is meant to alter the
executables (``pytest tests/test_exe_hashes.py --update-goldens``) and
review the diff.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import DecisionSequence
from repro.workloads.base import get_config, row_names

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "exe_hashes.json")

ROWS = row_names()
PAIRS = [ROWS[i:i + 2] for i in range(0, len(ROWS), 2)]


def _pinned(prog) -> dict:
    return {"exe_hash": prog.exe_hash, "fn_hashes": dict(prog.fn_hashes)}


def test_every_row_is_pinned():
    with open(GOLDEN) as f:
        assert sorted(json.load(f)) == sorted(ROWS)


@pytest.mark.parametrize("rows", PAIRS, ids=["+".join(p) for p in PAIRS])
def test_exe_hashes_match_golden(request, rows):
    compiler = Compiler()
    got = {}
    for row in rows:
        cfg = get_config(row)
        baseline = _pinned(compiler.compile(cfg))
        optimistic = _pinned(compiler.compile(
            cfg, sequence=DecisionSequence(), oraql_enabled=True))
        assert _pinned(compiler.compile(cfg)) == baseline
        got[row] = {"baseline": baseline, "optimistic": optimistic}
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            data = json.load(f)
    if request.config.getoption("--update-goldens"):
        data.update(got)
        with open(GOLDEN, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    for row in rows:
        assert row in data, (
            f"no golden for {row} — run 'pytest tests/test_exe_hashes.py "
            f"--update-goldens' to create it")
        assert got[row] == data[row], row
