"""The repository benchmark: ORAQL probing sessions timed end to end,
and per layer from outside the program.

    python3 bench/run.py --workload bisect --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --compare A.jsonl B.jsonl

One invocation runs one workload for about ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones (spans recorded by ``layers.py``).
Every answer is checked against ``expected.json``.  Human-readable lines
come first; the last line of stdout is one JSON object.  Each run is
appended to ``bench/results/runs.jsonl``; ``--compare`` reads two such
files.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import layers
import serve
from hostspeed import REFERENCE, HostSpeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
EXPECTED = os.path.join(BENCH, "expected.json")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

# Every workload probes a fixed set of rows so that runs with different
# seeds cost the same; the seed orders the sessions.  README.md gives
# the reasons.  Service connection i sends rows[i::CONNECTIONS], which
# gives both connections about the same work.
BISECT_ROWS = ("XSBench-seq", "LULESH-mpi")
ROWS: Dict[str, Sequence[str]] = {
    "bisect": BISECT_ROWS,
    "optimistic": ("GridMini-offload", "MiniGMG-ompif", "MiniGMG-omptask",
                   "MiniGMG-sse", "Quicksilver-openmp", "TestSNAP-seq",
                   "TestSNAP-kokkos-cuda"),
    "warm-cache": BISECT_ROWS,
    "service": ("LULESH-seq", "TestSNAP-openmp", "TestSNAP-seq",
                "GridMini-offload"),
}

#: service: closed-loop client connections, and server worker processes
CONNECTIONS = 2
#: set-up is repeated this many times per run and its median reported
SETUP_SAMPLES = 3
#: a service round (server start, jobs, shutdown) that takes longer
#: than this has hung
ROUND_TIMEOUT = 120.0

COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from repro.oraql.driver import ProbingDriver; "
              "from repro.workloads import get_config; "
              "[get_config(r) for r in sys.argv[2:]]")


@dataclass
class Op:
    """One probing session or service job."""

    row: str
    session: str
    #: wall-clock seconds, as measured
    seconds: float
    problems: List[str] = field(default_factory=list)
    #: host-speed factor for the op's interval (see HostSpeed)
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def latency(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds * self.scale


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    ops: List[Op]
    #: set-up seconds at the reference host speed, one per repetition
    setup: List[float]
    peak_rss_mb: float
    spans: List[layers.Span] = field(default_factory=list)
    counts: Dict[object, Counter] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    #: checked but untimed operations (the warm-cache fill)
    untimed: List[Op] = field(default_factory=list)
    #: mean HostSpeed slice time of the run
    host_slice_s: float = REFERENCE


# -- answers ------------------------------------------------------------------

def answer(report) -> dict:
    """The fields of a finished in-process session that expected.json
    fixes; re-runs the final program (never inside a timed region)."""
    run = report.final_program.run()
    return {"pessimistic_indices": list(report.pessimistic_indices),
            "final_exe_hash": report.final_exe_hash,
            "stdout_sha256": hashlib.sha256(
                run.stdout.encode()).hexdigest(),
            "final_cycles": run.cycles}


def mismatches(expected: dict, got: dict) -> List[str]:
    return [f"{key}: expected {expected.get(key)!r}, got {value!r}"
            for key, value in got.items() if expected.get(key) != value]


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED) as f:
        return json.load(f)


# -- the measurement loop -----------------------------------------------------

def timed_loop(items: Sequence[str], rng: random.Random, seconds: float,
               op: Callable[[str], None]) -> None:
    """Call ``op`` on seeded permutations of ``items``.  The first pass
    always completes; after it an op starts only if its median cost so
    far predicts it ends within ``seconds``."""
    costs: Dict[str, List[float]] = {item: [] for item in items}
    t0 = time.perf_counter()
    first = True
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            if not first and (time.perf_counter() - t0
                              + statistics.median(costs[item]) > seconds):
                return
            start = time.perf_counter()
            op(item)
            costs[item].append(time.perf_counter() - start)
        first = False


def cold_start(rows: Sequence[str]) -> None:
    """A fresh interpreter imports the program and builds the rows'
    configurations."""
    subprocess.run([sys.executable, "-c", COLD_START, SRC, *rows],
                   check=True, timeout=60)


def fresh_dir(name: str) -> str:
    path = os.path.join(BENCH, "state", str(os.getpid()), name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_inprocess(workload: str, rows: Sequence[str], rng: random.Random,
                  seconds: float, rec: Optional[layers.Recorder],
                  expected: Dict[str, dict], speed: HostSpeed) -> Outcome:
    """bisect / optimistic / warm-cache: sessions in this process."""
    from repro.oraql.cache import VerdictCache
    from repro.oraql.driver import ProbingDriver
    from repro.workloads import get_config

    setup = [speed.timed(cold_start, rows)[1]
             for _ in range(SETUP_SAMPLES)]
    ops: List[Op] = []
    cache_dir = fresh_dir("cache") if workload == "warm-cache" else None
    numbers = itertools.count()

    def session(row: str, timed: bool) -> Op:
        sid = f"{row}#{next(numbers)}"
        if rec is not None:
            rec.session = sid
            rec.active = True
        start = time.perf_counter()
        try:
            cache = VerdictCache(cache_dir) if cache_dir else None
            report = ProbingDriver(get_config(row),
                                   verdict_cache=cache).run()
        except Exception as e:  # a failed session is a failed operation
            return Op(row, sid, math.inf, [f"{type(e).__name__}: {e}"])
        finally:
            end = time.perf_counter()
            if rec is not None:
                rec.active = False
        try:
            problems = mismatches(expected[row], answer(report))
        except Exception as e:
            problems = [f"answer check: {type(e).__name__}: {e}"]
        if timed and cache_dir and report.cache_misses:
            problems.append(f"cache_misses: expected 0, got "
                            f"{report.cache_misses}")
        return Op(row, sid, end - start, problems,
                  speed.scale(start, end))

    untimed: List[Op] = []
    if cache_dir:
        # the fill: one cold session per row, so that every later probe
        # verdict is a cache hit
        untimed = [session(row, timed=False) for row in rows]
        fill = sum(op.latency for op in untimed)
        setup = [s + fill for s in setup]
    with (layers.installed(rec) if rec is not None
          else contextlib.nullcontext([])) as absent:
        timed_loop(rows, rng, seconds,
                   lambda row: ops.append(session(row, timed=True)))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Outcome(ops, setup, peak, absent=absent, untimed=untimed,
                   spans=rec.spans if rec else [],
                   counts=rec.counts if rec else {})


# -- the service workload -----------------------------------------------------

def _descendants(pid: int) -> List[int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parents.items() if pp == p]
        found += kids
        frontier += kids
    return found


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro.service`` process (through serve.py) on a fresh
    state directory."""

    def __init__(self, state_dir: str, traced: bool):
        self.socket = os.path.relpath(os.path.join(state_dir, "s.sock"))
        cmd = [sys.executable, os.path.join(BENCH, "serve.py"),
               *(["--trace"] if traced else []), "--socket", self.socket,
               "--jobs", str(CONNECTIONS), "--state-dir", state_dir]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        if b"listening" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")

    def peak_rss_mb(self) -> float:
        """Largest VmHWM over the server and its workers."""
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return max(_vm_hwm_mb(p) for p in pids)

    def stop(self) -> None:
        """Shut the server down and wait for it and its workers."""
        from repro.service.client import ServiceClient

        workers = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            async def shutdown():
                async with ServiceClient(socket_path=self.socket) as c:
                    await c.shutdown()
            try:
                asyncio.run(asyncio.wait_for(shutdown(), 10))
                self.proc.wait(timeout=20)
            except (OSError, asyncio.TimeoutError,
                    subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 20
        for pid in workers:
            while os.path.exists(f"/proc/{pid}"):
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    deadline = time.monotonic() + 5
                time.sleep(0.01)


async def _drive(socket: str, deal: List[List[str]], tag: str,
                 expected: Dict[str, dict]) -> List[Op]:
    """Closed loop: each connection sends its rows' streamed probe jobs
    back to back; a job's latency runs from submit to its result."""
    from repro.service.client import ServiceClient

    async def connection(i: int, rows: List[str]) -> List[Op]:
        out = []
        async with ServiceClient(socket_path=socket) as client:
            for j, row in enumerate(rows):
                sid = f"{tag}-c{i}-{j}"
                start = time.perf_counter()
                result = None
                try:
                    async for msg in client.submit_and_stream(
                            workload=row, id=sid):
                        if msg["t"] == "result":
                            result = msg
                except Exception as e:
                    out.append(Op(row, sid, math.inf,
                                  [f"{type(e).__name__}: {e}"]))
                    continue
                end = time.perf_counter()
                if result.get("status") != "done":
                    out.append(Op(row, sid, math.inf, [
                        f"job {result.get('status')}: "
                        f"{result.get('error')}"]))
                    continue
                report = result["report"]
                got = {"pessimistic_indices": report["pessimistic_indices"],
                       "final_exe_hash": report["final_exe_hash"]}
                out.append(Op(row, sid, end - start,
                              mismatches(expected[row], got)))
        return out

    per_conn = await asyncio.gather(*(connection(i, rows)
                                      for i, rows in enumerate(deal)))
    return [op for ops in per_conn for op in ops]


def run_service(rows: Sequence[str], rng: random.Random, seconds: float,
                traced: bool, expected: Dict[str, dict],
                speed: HostSpeed) -> Outcome:
    """Rounds of: a fresh server, every row once over CONNECTIONS
    connections, shutdown.  A fresh state directory per round keeps the
    server's verdict cache from serving one round's jobs to the next.
    A job's host speed is the one its worker sampled."""
    ops: List[Op] = []
    setup: List[float] = []
    rss: List[float] = []
    spans: List[layers.Span] = []
    counts: Dict[object, Counter] = {}

    def one_round(_item: str) -> None:
        state = fresh_dir(f"round-{len(setup)}")
        server, startup = speed.timed(Server, state, traced)
        setup.append(startup)
        try:
            deal = [list(rows[i::CONNECTIONS]) for i in range(CONNECTIONS)]
            for jobs in deal:
                rng.shuffle(jobs)
            round_ops = asyncio.run(asyncio.wait_for(
                _drive(server.socket, deal, f"r{len(setup)}", expected),
                ROUND_TIMEOUT))
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        more_spans, more_counts, slices = serve.read_jobs(state)
        for op in round_ops:
            if op.session in slices:
                op.scale = REFERENCE / slices[op.session]
        ops.extend(round_ops)
        base = len(spans)
        for span in more_spans:
            if span[3] >= 0:
                span[3] += base
        spans.extend(more_spans)
        counts.update(more_counts)
        shutil.rmtree(state, ignore_errors=True)

    timed_loop(["round"], rng, seconds, one_round)
    while len(setup) < SETUP_SAMPLES:
        state = fresh_dir(f"start-{len(setup)}")
        server, startup = speed.timed(Server, state, False)
        setup.append(startup)
        server.stop()
    return Outcome(ops, setup, max(rss), spans=spans, counts=counts)


# -- metrics ------------------------------------------------------------------

def by_row(ops: List[Op]) -> Dict[str, List[Op]]:
    out: Dict[str, List[Op]] = defaultdict(list)
    for op in ops:
        out[op.row].append(op)
    return dict(sorted(out.items()))


def per_row(ops: List[Op], value: Callable[[Op], float]) -> Dict[str, float]:
    """row -> median of ``value`` over the row's operations."""
    return {row: statistics.median(value(op) for op in row_ops)
            for row, row_ops in by_row(ops).items()}


def end_to_end(out: Outcome) -> Dict[str, float]:
    """wall_s: one repetition of the workload's row set, as the sum over
    rows of each row's median session (or job) latency."""
    return {"wall_s": sum(per_row(out.ops, lambda op: op.latency).values()),
            "setup_s": statistics.median(out.setup),
            "peak_rss_mb": out.peak_rss_mb}


def per_layer(out: Outcome) -> Dict[str, float]:
    """Per-layer values for one repetition: each quantity is averaged
    over a row's sessions, then summed over rows.  Times are at the
    reference host speed, scaled by their op's factor."""
    selfs = layers.self_times(out.spans)
    roots = layers.root_durations(out.spans)
    ok = [op for op in out.ops if op.ok]
    keys = ("frontend", "passes", "codegen", "compiler", "vm", "verify",
            "driver")
    t: Dict[str, float] = defaultdict(float)
    for row_ops in by_row(ok).values():
        for op in row_ops:
            s = selfs.get(op.session, {})
            c = out.counts.get(op.session, Counter())
            values = {k: s.get(k, 0.0) * op.scale for k in keys}
            values.update(c)
            values["latency"] = op.latency
            values["root"] = roots.get(op.session, 0.0) * op.scale
            for k, v in values.items():
                t[k] += v / len(row_ops)
    return {
        "frontend.self_s": t["frontend"],
        "passes.self_s": t["passes"],
        "passes.executions": t["pass_executions"],
        "analysis.builds": t["analysis_builds"],
        "codegen.self_s": t["codegen"],
        "compiler.self_s": t["compiler"],
        "compiler.calls": t["compiles"],
        "vm.self_s": t["vm"],
        "vm.runs": t["vm_runs"],
        "vm.instructions": t["vm_instructions"],
        "vm.minsts_per_s": _ratio(t["vm_instructions"] / 1e6, t["vm"]),
        "verify.self_s": t["verify"],
        "verify.wrong_output_frac": _ratio(t["wrong_output"], t["vm_runs"]),
        "strategy.calls": t["strategy_calls"],
        "driver.tests_run": t["tests_run"],
        "driver.self_s": t["driver"],
        "cache.lookups": t["cache_lookups"],
        "cache.hit_ratio": _ratio(t["cache_hits"], t["cache_lookups"]),
        "op.overhead_s": t["latency"] - t["root"],
        "trace.coverage": _ratio(t["root"] - t["driver"], t["latency"]),
        "trace.wall_s": t["latency"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def declared() -> dict:
    with open(DECLARATION) as f:
        return json.load(f)


# -- the command --------------------------------------------------------------

def use_source_tree() -> None:
    """Import the program from ``src/`` of this checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            rows: Optional[Sequence[str]] = None,
            expected: Optional[Dict[str, dict]] = None) -> Outcome:
    """One run of ``workload`` (optionally on other ``rows``)."""
    rows = ROWS[workload] if rows is None else rows
    expected = load_expected() if expected is None else expected
    rng = random.Random(seed)
    speed = HostSpeed()
    try:
        with speed.sampling():
            if workload == "service":
                out = run_service(rows, rng, seconds, trace, expected, speed)
            else:
                out = run_inprocess(workload, rows, rng, seconds,
                                    layers.Recorder() if trace else None,
                                    expected, speed)
    finally:
        shutil.rmtree(os.path.join(BENCH, "state", str(os.getpid())),
                      ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(BENCH, "state"))
    out.host_slice_s = speed.mean_slice()
    return out


def report_run(args, out: Outcome) -> dict:
    decl = declared()
    section = decl["per_layer"] if args.trace else decl["end_to_end"]
    values = per_layer(out) if args.trace else end_to_end(out)
    units = {m["name"]: m["unit"] for m in section}
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(values)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    every = out.untimed + out.ops
    failed = [op for op in every if not op.ok]
    for name, value in values.items():
        print(f"{args.workload:10s} {name:26s} {value:14.6g} "
              f"{units[name]:8s} (n={len(out.ops)} timed ops)")
    rows = per_row(out.ops, lambda op: op.latency)
    raw = per_row(out.ops, lambda op: op.seconds)
    counts = Counter(op.row for op in out.ops)
    for row, median in rows.items():
        print(f"{args.workload:10s} row {row:22s} {median:10.3f} s "
              f"(as measured {raw[row]:.3f} s), median of {counts[row]}")
    for op in failed:
        print(f"FAILED {args.workload} {op.row} ({op.session}): "
              f"{'; '.join(op.problems)}")
    print(f"{args.workload:10s} fail_frac {len(failed)}/{len(every)}")
    if out.absent:
        print(f"{args.workload:10s} absent layer targets: "
              f"{', '.join(out.absent)}")
    metrics = {name: {"value": _finite(v), "unit": units[name]}
               for name, v in values.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": int(args.trace), "seconds": args.seconds,
              "metrics": {k: m["value"] for k, m in metrics.items()},
              "rows": {row: {"median_s": _finite(m),
                             "measured_s": _finite(raw[row]),
                             "n": counts[row]}
                       for row, m in rows.items()},
              "attempted": len(every), "failed": len(failed),
              "failures": [f"{op.row}: {'; '.join(op.problems)}"
                           for op in failed],
              "host": {"cpus": os.cpu_count(),
                       "python": sys.version.split()[0],
                       "slice_s": out.host_slice_s},
              "time": time.time()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        layers.write_spans(os.path.join(
            RESULTS, f"trace-{args.workload}.jsonl"), out.spans)
    return {"correct": not failed, "attempted": len(every),
            "failed": len(failed), "metrics": metrics}


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run one benchmark workload and print its metrics, "
                    "or compare two sets of runs.")
    parser.add_argument("--workload", choices=sorted(ROWS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two runs.jsonl files and exit 1 "
                             "on a regression")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, declared())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    use_source_tree()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report_run(args, out)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
