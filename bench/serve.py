"""Run ``repro.service`` for the benchmark's ``service`` workload.

    python3 bench/serve.py [--trace] --socket PATH --state-dir DIR ...

Arguments after the optional ``--trace`` go to ``repro.service``
unchanged.  The pool workers are forked from this process, so a hook on
the job entry point reaches them: each job's host speed is sampled in
the worker that runs it (see hostspeed.py), and with ``--trace`` the
layer shims of layers.py record its spans.  After each job the worker
appends one JSON line to ``<state-dir>/jobs-<pid>.jsonl``:
``{"session": job id, "slice_s": mean slice time, "spans": [...],
"counts": {...}}``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Tuple


def serve(argv: List[str]) -> int:
    from repro.service import __main__ as service_main
    from repro.service import scheduler

    import layers
    from hostspeed import HostSpeed

    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    rec = layers.Recorder()
    execute = (rec.wrap("worker", scheduler._execute_job) if traced
               else scheduler._execute_job)

    @functools.wraps(scheduler._execute_job)
    def job(spec_dict, paths, attempt, resume):
        rec.session = spec_dict["id"]
        speed = HostSpeed()
        try:
            with speed.sampling():
                return execute(spec_dict, paths, attempt, resume)
        finally:
            state_dir = os.path.dirname(paths["cache_root"])
            out = os.path.join(state_dir, f"jobs-{os.getpid()}.jsonl")
            with open(out, "a") as f:
                f.write(json.dumps({
                    "session": rec.session, "slice_s": speed.mean_slice(),
                    "spans": rec.spans,
                    "counts": rec.counts.get(rec.session, {})}) + "\n")
            rec.spans.clear()
            rec.counts.clear()

    with (layers.installed(rec) if traced else contextlib.nullcontext()):
        scheduler._execute_job = job
        return service_main.main(argv)


def read_jobs(state_dir: str) -> Tuple[list, Dict[str, Counter],
                                        Dict[str, float]]:
    """(spans, counters per job, mean slice time per job) that the
    workers wrote under ``state_dir``; span parents are re-indexed into
    the one returned list."""
    spans: list = []
    counts: Dict[str, Counter] = {}
    slices: Dict[str, float] = {}
    for name in sorted(os.listdir(state_dir)):
        if not (name.startswith("jobs-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(state_dir, name)) as f:
            for line in f:
                job = json.loads(line)
                base = len(spans)
                for span in job["spans"]:
                    if span[3] >= 0:
                        span[3] += base
                    spans.append(span)
                counts[job["session"]] = Counter(job["counts"])
                slices[job["session"]] = job["slice_s"]
    return spans, counts, slices


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(serve(sys.argv[1:]))
