"""IR-building, execution and service-process helpers shared by the
test suite."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.frontend import compile_source
from repro.ir import (
    F64,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    VOID,
    ptr,
    verify_module,
)
from repro.passes import CompilationContext, PassManager, build_pipeline
from repro.vm import Machine


def run_main(module, entry="main", max_steps=10_000_000, **kw):
    """Execute a module's entry point; assert clean completion."""
    m = Machine(module, max_steps=max_steps, **kw)
    m.start(entry)
    m.run_to_completion()
    assert m.state == "done", f"{m.state}: {m.error}"
    return m


def compile_and_run(source, opt_level=3, entry="main", filename="t.c",
                    verify_each=False, **kw):
    """MiniC -> IR -> pipeline -> run; returns (machine, ctx)."""
    module = compile_source(source, filename)
    verify_module(module)
    ctx = CompilationContext(module, verify_each=verify_each)
    PassManager(ctx).run(build_pipeline(opt_level))
    verify_module(module)
    return run_main(module, entry, **kw), ctx


def differential(source, entry="main", levels=(0, 1, 2, 3), **kw):
    """Assert identical stdout across optimization levels."""
    outputs = []
    for lvl in levels:
        module = compile_source(source, "t.c")
        ctx = CompilationContext(module)
        PassManager(ctx).run(build_pipeline(lvl))
        verify_module(module)
        m = run_main(module, entry, **kw)
        outputs.append(m.output())
    for lvl, out in zip(levels[1:], outputs[1:]):
        assert out == outputs[0], (
            f"O{lvl} output differs from O{levels[0]}:\n"
            f"{outputs[0]!r}\nvs\n{out!r}")
    return outputs[0]


def probe_logging_driver(config, strategy="chunked", **kwargs):
    """A :class:`~repro.oraql.driver.ProbingDriver` that records every
    probe it tests (the bit string handed to ``_test``), in order.

    The probe log is the strategy-parity currency: the goldens under
    ``tests/goldens/strategy_probes_*.txt`` were captured from the
    pre-refactor in-driver strategies, and the ported strategy objects
    must reproduce them probe for probe."""
    from repro.oraql.driver import ProbingDriver

    class _LoggingDriver(ProbingDriver):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.probe_log = []

        def _test(self, sequence):
            self.probe_log.append(
                "".join(str(b) for b in sequence.bits) or "(empty)")
            return super()._test(sequence)

    return _LoggingDriver(config, strategy=strategy, **kwargs)


def replay_checking_driver(config, **kwargs):
    """A :class:`~repro.oraql.driver.ProbingDriver` that compiles every
    probe answer replay skips anyway, and asserts that the compile
    builds the executable (and asks the queries) the memo named.  The
    checking compiles bypass the driver's books, so its report is the
    plain driver's; ``checked`` counts them."""
    from repro.oraql.driver import ProbingDriver

    class _ReplayCheckingDriver(ProbingDriver):
        checked = 0

        def _replay(self, sequence, exe_hash, unique_queries):
            prog = self.compiler.compile(self.config, sequence=sequence,
                                         oraql_enabled=True)
            bits = "".join(map(str, sequence.bits)) or "(empty)"
            assert prog.exe_hash == exe_hash, \
                f"replayed probe {bits} builds {prog.exe_hash[:12]}, " \
                f"the memo said {exe_hash[:12]}"
            assert prog.oraql.unique_queries == unique_queries, bits
            prog.release()
            self.checked += 1
            return super()._replay(sequence, exe_hash, unique_queries)

    return _ReplayCheckingDriver(config, **kwargs)


def replay_case_id(case):
    """Test id of an answer-replay combination ``(row, strategy, traced,
    cache, journal)``."""
    row, strategy, traced, cache, journal = case
    return (f"{row}-{strategy}-{'traced' if traced else 'untraced'}-"
            f"cache_{cache}-journal_{journal}")


#: the answer-replay combinations run with the compile-anyway referee:
#: every probe answer replay skips is compiled and checked
REPLAY_CHECKED = (False, "cold", "fresh"), (False, "warm", "fresh")


class ReplaySessions:
    """Runs each answer-replay combination's session once, under
    ``root``.  The plain combination (untraced, no cache, fresh journal)
    is every other one's reference, and the untraced cold one fills the
    verdict cache the warm ones start from, so both are kept per
    (row, strategy)."""

    SHARED = (False, "none", "fresh"), REPLAY_CHECKED[0]

    def __init__(self, root):
        self.root = root
        self._done = {}

    def run(self, case):
        """``(report, driver, kills)`` of one combination's session."""
        if case[2:] not in self.SHARED:
            return self._session(case)
        if case not in self._done:
            self._done[case] = self._session(case)
        return self._done[case]

    def reference(self, row, strategy):
        return self.run((row, strategy) + self.SHARED[0])[0]

    def filled_cache(self, row, strategy):
        case = (row, strategy) + self.SHARED[1]
        self.run(case)
        return os.path.join(self.root, replay_case_id(case), "cache")

    def _session(self, case):
        import shutil

        from repro.faults.injector import (
            FaultInjector,
            FaultSpec,
            SessionKilled,
        )
        from repro.oraql.cache import VerdictCache
        from repro.oraql.driver import ProbingDriver
        from repro.oraql.journal import SessionJournal
        from repro.trace import QueryTrace
        from repro.workloads.base import get_config

        row, strategy, traced, cache, journal = case
        cfg = get_config(row)
        workdir = os.path.join(self.root, replay_case_id(case))
        os.makedirs(workdir)
        verdict_cache = None
        if cache != "none":
            path = os.path.join(workdir, "cache")
            if cache == "warm":
                shutil.copytree(self.filled_cache(row, strategy), path)
            verdict_cache = VerdictCache(path)
        injector = None
        if journal == "resumed":
            # kill the session at its second probe (a fully optimistic
            # row has only one): the resumed one replays the first from
            # the journal
            injector = FaultInjector([FaultSpec("session-kill", 1)])
        make = replay_checking_driver if case[2:] in REPLAY_CHECKED \
            else ProbingDriver
        kills = 0
        while True:
            driver = make(
                cfg, strategy=strategy, verdict_cache=verdict_cache,
                journal=SessionJournal.for_config(
                    os.path.join(workdir, "journal"), cfg, strategy,
                    resume=kills > 0),
                injector=injector, trace=QueryTrace() if traced else None)
            try:
                return driver.run(), driver, kills
            except SessionKilled:
                kills += 1
                assert kills == 1


def replay_answers(report):
    return (sorted(report.pessimistic_indices), report.final_exe_hash,
            report.baseline_program.exe_hash)


def check_replay_combination(sessions, case):
    """One answer-replay combination finds the plain session's answers,
    and books its probes consistently."""
    row, strategy, traced, cache, journal = case
    report, driver, kills = sessions.run(case)
    assert replay_answers(report) == \
        replay_answers(sessions.reference(row, strategy))
    assert kills == (journal == "resumed" and not report.fully_optimistic)
    if case[2:] in REPLAY_CHECKED:
        # the compile-anyway referee checked every replayed probe
        assert driver.checked == report.compiles_skipped
    if cache == "warm":
        # only the baseline and final compiles (and the prior's first
        # probe, whose query records it reads) are left
        assert report.compiles == 2 + (strategy == "provenance-prior")
        assert report.tests_run == 0
    # a probe either compiles or is replayed
    assert report.compiles + report.compiles_skipped == \
        report.tests_run + report.tests_cached + 2
    if traced:
        # one trace record per replayed probe of the (last) session
        replays = [r for r in driver.trace.records if r["t"] == "replay"]
        assert len(replays) == report.compiles_skipped
        assert all(r["exe"] and set(r["bits"]) <= {"0", "1"}
                   for r in replays)


def render_probe_log(title, driver, report):
    """One golden section: every probe in order plus the totals."""
    lines = [f"== {title} =="]
    lines += [f"probe {p}" for p in driver.probe_log]
    pess = ", ".join(str(i) for i in report.pessimistic_indices)
    lines.append(f"pessimistic: {pess or '(none)'}")
    lines.append(f"tests: run={report.tests_run} "
                 f"cached={report.tests_cached} "
                 f"deduced={report.tests_deduced} "
                 f"compiles={report.compiles}")
    return "\n".join(lines)


def fuzz_probe_config(seed):
    """A probing config for a seeded hazard-mode fuzz program, with the
    O0 interpretation as the reference output (the oracle's setup)."""
    import dataclasses

    from repro.fuzz.generator import GeneratorOptions, generate_program
    from repro.fuzz.oracle import base_config
    from repro.oraql.compiler import Compiler

    program = generate_program(seed, GeneratorOptions(hazard=True))
    cfg = base_config(seed, program.source, 3)
    ref = Compiler().compile(
        dataclasses.replace(cfg, opt_level=0)).run()
    assert ref.ok, f"fuzz seed {seed} reference run failed"
    return dataclasses.replace(cfg, reference_outputs=[ref.stdout])


#: the (title, config factory) parity cases shared by the golden
#: capture and the parity tests — workloads with non-trivial bisection
#: plus a hazard-mode fuzz program
def parity_cases():
    import repro.workloads  # noqa: F401 — registers all variants
    from repro.workloads.base import get_config

    return [
        ("LULESH-seq", lambda: get_config("LULESH-seq")),
        ("MiniFE-openmp", lambda: get_config("MiniFE-openmp")),
        ("TestSNAP-openmp", lambda: get_config("TestSNAP-openmp")),
        ("fuzz-42", lambda: fuzz_probe_config(42)),
    ]


@pytest.fixture
def module():
    return Module("test")


@pytest.fixture
def simple_fn(module):
    """A function double f(double* a, double* b, i64 n) with an entry
    block and a builder positioned in it."""
    fn = module.add_function(
        FunctionType(F64, [ptr(F64), ptr(F64), I64]), "f", ["a", "b", "n"])
    bb = fn.add_block("entry")
    b = IRBuilder(bb)
    return fn, b


def spawn_server(state_dir, sock, resume=False, jobs=2, timeout=30.0):
    """Start ``python -m repro.service`` on unix socket ``sock`` and
    return once it prints that it is listening.  The socket file alone
    does not say so: the server binds it before it listens."""
    cmd = [sys.executable, "-m", "repro.service", "--socket", sock,
           "--jobs", str(jobs), "--state-dir", state_dir]
    if resume:
        cmd.append("--resume")
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    fd, out = proc.stdout.fileno(), b""
    deadline = time.monotonic() + timeout
    while b"repro.service listening on" not in out:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            proc.kill()
            proc.wait()
            raise AssertionError("server never said it was listening")
        chunk = os.read(fd, 4096)
        if not chunk:
            proc.wait()
            raise AssertionError(
                f"server died on startup: {proc.stderr.read()}")
        out += chunk
    return proc


def child_pids(pid):
    """The live (not zombie) child processes of ``pid``, from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile
        if fields[0] != "Z" and int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def alive(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_server(proc):
    """SIGKILL a server and then the pool workers it leaves behind
    (orphans that nothing else would reap)."""
    workers = child_pids(proc.pid)
    proc.kill()
    proc.wait()
    for pid in workers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
