"""Compare two sets of benchmark runs (``bench/run.py --compare A B``).

A and B are ``runs.jsonl`` files (or JSON lists of the same records),
A from the parent commit and B from the change, made with the same
benchmark code and ``--seconds``.  For every (workload, metric) it
prints both medians with their quartiles, how many seed-matched pairs B
won, and a verdict:

* ``improved``: B wins at least 9 of 10 pairs (ties count for neither),
  over at least 10 pairs, and the medians differ by more than A's
  quartile distance;
* ``regressed``: an end-to-end metric whose B median is worse than A's
  by more than the bound of BENCHMARK.json;
* ``unresolved``: the quartile distance of A or B, as a share of its
  median, is wider than the bound, and not every B run beats every A
  run; or too few pairs to claim a gain;
* ``unchanged``: none of these.

Per-layer metrics have no bound; a B median that is worse by the gain
rule reads ``worse``, which is reported but is not a regression.  The
exit status is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: a gain needs this share of pairs won, over at least MIN_PAIRS pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path: str) -> List[dict]:
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]
    return data if isinstance(data, list) else [data]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _series(records: List[dict]
            ) -> Dict[Tuple[str, str], Dict[Tuple[int, int], float]]:
    """(workload, metric) -> (seed, k) -> value, where k counts earlier
    runs with the same seed; pairs are matched on (seed, k)."""
    out: Dict[Tuple[str, str], Dict[Tuple[int, int], float]] = \
        defaultdict(dict)
    for rec in records:
        for name, value in rec["metrics"].items():
            if value is None:
                continue
            series = out[(rec["workload"], name)]
            k = sum(1 for seed, _ in series if seed == rec["seed"])
            series[(rec["seed"], k)] = value
    return out


def verdict(a: Dict[tuple, float], b: Dict[tuple, float], lower_better: bool,
            bound: Optional[float]) -> Tuple[str, int, int]:
    """Returns (verdict, pairs won by B, pairs)."""
    def better(x: float, y: float) -> bool:
        return x < y if lower_better else x > y

    common = sorted(set(a) & set(b))
    if common:
        pairs = [(a[key], b[key]) for key in common]
    else:  # no common seeds: pair the runs in order
        pairs = list(zip(a.values(), b.values()))
    wins = sum(better(y, x) for x, y in pairs)
    losses = sum(better(x, y) for x, y in pairs)
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    med_a, med_b = qa[1], qb[1]
    iqr_a = qa[2] - qa[0]
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    apart = abs(med_b - med_a) > iqr_a
    every_b_better = all(better(y, x) for x in a.values()
                         for y in b.values())
    enough = len(pairs) >= MIN_PAIRS
    if better(med_b, med_a) and apart and wins >= WIN_SHARE * len(pairs):
        return ("improved" if enough else "unresolved"), wins, len(pairs)
    if bound is None:
        worse = (better(med_a, med_b) and apart
                 and losses >= WIN_SHARE * len(pairs))
        return ("worse" if worse and enough else "unchanged"), wins, \
            len(pairs)
    if spread > bound and not every_b_better:
        return "unresolved", wins, len(pairs)
    worsening = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower_better:
        worsening = -worsening
    if worsening > bound:
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(a_records: List[dict], b_records: List[dict],
            declaration: dict) -> Tuple[List[str], bool]:
    """Returns the report lines and whether anything regressed."""
    metrics = {m["name"]: m for m in declaration["end_to_end"]
               + declaration["per_layer"]}
    sa, sb = _series(a_records), _series(b_records)
    lines = [f"{'workload':10s} {'metric':26s} {'A median [q1, q3]':>30s} "
             f"{'B median [q1, q3]':>30s} {'change':>8s} {'wins':>7s}  "
             f"verdict"]
    regressed = False
    for key in sorted(set(sa) & set(sb)):
        workload, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        v, wins, pairs = verdict(sa[key], sb[key], m["better"] == "lower",
                                 m.get("bound"))
        regressed |= v == "regressed"
        qa, qb = quartiles(list(sa[key].values())), \
            quartiles(list(sb[key].values()))
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        lines.append(
            f"{workload:10s} {name:26s} "
            f"{_fmt(qa):>30s} {_fmt(qb):>30s} {change:+8.1%} "
            f"{wins:>3d}/{pairs:<3d}  {v}")
    return lines, regressed


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(path_a: str, path_b: str, declaration: dict) -> int:
    lines, regressed = compare(load(path_a), load(path_b), declaration)
    print("\n".join(lines))
    return 1 if regressed else 0
