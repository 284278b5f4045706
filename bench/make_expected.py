"""Rewrite expected.json: the answers of one in-process probing session
per workload row (pessimistic indices, final executable hash, SHA-256 of
the final program's stdout, final VM cycles).

    python3 bench/make_expected.py

The answers must not change across performance work; regenerate only
for a change that is meant to alter them, and review the diff.
"""

import json
import sys

import run


def main() -> int:
    run.use_source_tree()
    from repro.oraql.driver import ProbingDriver
    from repro.workloads import get_config, row_names

    expected = {}
    for row in row_names():
        expected[row] = run.answer(ProbingDriver(get_config(row)).run())
        print(row, expected[row]["final_exe_hash"][:16], flush=True)
    with open(run.EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
