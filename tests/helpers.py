"""IR-building, execution and service-process helpers shared by the
test suite."""

from __future__ import annotations

import contextlib
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


def final_program_view(prog):
    """Everything a report, a figure or a runtime table reads from a
    final program, with one run's stdout and cycles."""
    from repro.oraql.report import render_query

    oraql = prog.oraql
    run = prog.run()
    return {
        "exe_hash": prog.exe_hash,
        "fn_hashes": prog.fn_hashes,
        "stats": prog.stats.rows(),
        "kernel_info": prog.kernel_info,
        "no_alias_count": prog.no_alias_count,
        "counters": (oraql.opt_unique, oraql.opt_cached,
                     oraql.pess_unique, oraql.pess_cached),
        "unique_by_pass": dict(oraql.unique_by_pass),
        "pessimistic_records": [render_query(rec)
                                for rec in oraql.pessimistic_records()],
        "stdout": run.stdout,
        "cycles": run.cycles.hex(),
    }


def final_reuse_checking_driver(config, **kwargs):
    """A :class:`~repro.oraql.driver.ProbingDriver` that compiles the
    final sequence anyway when it reuses the last passing probe's
    program, and asserts that the fresh compile equals the reused
    program on everything read from it (:func:`final_program_view`);
    with tracing, also on the fresh compile's own query records and
    remarks.  The checking compile and runs bypass the driver's books,
    so its report is the plain driver's but for the phase timer;
    ``checked`` counts the reuses."""
    from repro.oraql.driver import ProbingDriver
    from repro.trace import QueryTrace

    class _FinalReuseCheckingDriver(ProbingDriver):
        checked = 0

        def _final_program(self, sequence):
            prog = super()._final_program(sequence)
            if self._report.final_reused is None:
                return prog
            trace = QueryTrace() if self.trace is not None else None
            fresh = self.compiler.compile(self.config, sequence=sequence,
                                          oraql_enabled=True, trace=trace)
            assert final_program_view(prog) == final_program_view(fresh)
            if trace is not None:
                assert self.trace.query_records("final") == \
                    trace.query_records()
                assert self.trace.remark_lines("final") == \
                    trace.remark_lines()
            fresh.release()
            self.checked += 1
            return prog

    return _FinalReuseCheckingDriver(config, **kwargs)


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
        """``(report, driver, kills, runs)`` of one combination's
        session; ``runs`` counts its ``CompiledProgram.run`` calls."""
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
        with counting_runs() as runs:
            while True:
                driver = make(
                    cfg, strategy=strategy, verdict_cache=verdict_cache,
                    journal=SessionJournal.for_config(
                        os.path.join(workdir, "journal"), cfg, strategy,
                        resume=kills > 0),
                    injector=injector,
                    trace=QueryTrace() if traced else None)
                try:
                    report = driver.run()
                    break
                except SessionKilled:
                    kills += 1
                    assert kills == 1
        return report, driver, kills, len(runs)


@contextlib.contextmanager
def counting_runs():
    """Collect the program of every ``CompiledProgram.run`` call made
    inside the block, in order."""
    from repro.oraql.compiler import CompiledProgram

    ran = []
    run = CompiledProgram.run

    def counting(self, *args, **kwargs):
        ran.append(self)
        return run(self, *args, **kwargs)

    CompiledProgram.run = counting
    try:
        yield ran
    finally:
        CompiledProgram.run = run


def replay_answers(report):
    return (sorted(report.pessimistic_indices), report.final_exe_hash,
            report.baseline_program.exe_hash)


def check_replay_combination(sessions, case):
    """One answer-replay combination finds the plain session's answers,
    and books its probes consistently."""
    row, strategy, traced, cache, journal = case
    report, driver, kills, runs = sessions.run(case)
    assert replay_answers(report) == \
        replay_answers(sessions.reference(row, strategy))
    assert kills == (journal == "resumed" and not report.fully_optimistic)
    if case[2:] in REPLAY_CHECKED:
        # the compile-anyway referee checked every replayed probe
        assert driver.checked == report.compiles_skipped
    if cache == "warm":
        # only the baseline and final compiles are left, and no program
        # runs: every verdict, the baseline's too, is cached
        assert report.compiles == 2
        assert report.tests_run == 0
        assert runs == 0
        assert report.baseline_cached
    # a probe either compiles or is replayed; the baseline compiles, and
    # so does the final program unless it is the last passing probe
    assert report.compiles + report.compiles_skipped == \
        report.tests_run + report.tests_cached + 1 \
        + (report.final_reused is None)
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


def session_sequences(config, strategy="chunked"):
    """The bit lists a plain probing session of ``config`` compiles, in
    order; None stands for the baseline (ORAQL off)."""
    from repro.oraql.driver import ProbingDriver

    compiled = []

    class _RecordingDriver(ProbingDriver):
        def _compile(self, sequence, oraql_enabled=True, label="probe"):
            compiled.append(list(sequence.bits) if oraql_enabled else None)
            return super()._compile(sequence, oraql_enabled, label)

    _RecordingDriver(config, strategy=strategy).run()
    return compiled


def golden_probe_sequences(path, title):
    """The probes of one section of a ``strategy_probes_*.txt`` golden,
    and its final sequence, as bit lists."""
    from repro.oraql.sequence import sequence_from_pessimistic_set

    with open(path) as f:
        sections = f.read().split("\n\n")
    for section in sections:
        lines = section.strip().splitlines()
        if lines and lines[0] == f"== {title} ==":
            break
    else:
        raise KeyError(title)
    probes = [[int(c) for c in line[len("probe "):].replace("(empty)", "")]
              for line in lines if line.startswith("probe ")]
    pess = next(line for line in lines if line.startswith("pessimistic: "))
    indices = [int(i) for i in pess[len("pessimistic: "):].split(", ")
               if i != "(none)"]
    return probes + [sequence_from_pessimistic_set(indices).bits]


def memo_referee(config, sequences):
    """Compile each of ``sequences`` (bit lists, None for the baseline)
    through one shared :class:`~repro.oraql.compiler.Compiler`, whose
    function memo serves every compile after the first, and through a
    fresh compiler; returns ``(bits, fields that differ, memo counts)``
    for every compile that differs.  Besides the fingerprint, each memo
    program takes every replayed body, and its whole module must verify
    and print as the fresh compile's does (field ``module``)."""
    from repro.fuzz.oracle import compile_fingerprint, fresh_compile
    from repro.ir import print_module, verify_module
    from repro.oraql.compiler import Compiler
    from repro.oraql.sequence import DecisionSequence

    shared = Compiler()
    # keep the prefix with a compile that bypasses the memo, as
    # fresh_compile does, so that no compile counts the prefix's work
    shared.compile(config, debug_pass_executions=True)
    bad = []
    for bits in sequences:
        kw = (dict(oraql_enabled=False) if bits is None else
              dict(sequence=DecisionSequence(bits), oraql_enabled=True))
        prog = shared.compile(config, **kw)
        fresh = fresh_compile(shared, config, **kw)
        mine, theirs = compile_fingerprint(prog), compile_fingerprint(fresh)
        diff = [key for key in mine if mine[key] != theirs[key]]
        verify_module(prog.module)
        if print_module(prog.module) != print_module(fresh.module):
            diff.append("module")
        if diff:
            bad.append((bits, ", ".join(diff), prog.function_memo))
    shared.drop_prefixes()
    return bad


def walked_tbaa_alias(a, b):
    """The TBAA verdict by walking parent chains, as
    :func:`repro.ir.metadata.tbaa_alias` answered before node ancestry
    was precomputed: the reference its answers must equal."""
    if a is None or b is None:
        return True

    def root(node):
        while node.parent is not None:
            node = node.parent
        return node

    if root(a) is not root(b):
        return True
    if a.parent is root(a) or b.parent is root(b):
        return True
    if a.parent is None or b.parent is None:
        return True
    return walked_is_ancestor_of(a, b) or walked_is_ancestor_of(b, a)


def walked_is_ancestor_of(node, other):
    """Whether ``node`` is ``other`` or one of its ancestors, by walking
    ``other``'s parent chain."""
    while other is not None:
        if other is node:
            return True
        other = other.parent
    return False


class AliasMemoMismatch(AssertionError):
    """A pointer fact the alias layer reused, or a TBAA verdict, differs
    from the one computed afresh."""


@contextlib.contextmanager
def alias_memo_referee():
    """Check the alias layer's reused pointer facts inside the block.

    Every call of ``decompose_pointer`` and ``underlying_object`` (each
    epoch-memo hit among them) is computed again without the memo, and
    every ``tbaa_alias`` verdict against :func:`walked_tbaa_alias`; a
    difference raises :class:`AliasMemoMismatch` and is also kept in
    ``counts["mismatches"]`` (a compile error can be booked as a
    verdict).  The wrappers replace each function wherever a ``repro``
    module bound it.  Yields the counts: calls and memo hits per fact,
    TBAA verdicts, and the mismatches."""
    from repro.analysis import aliasing, basic_aa
    from repro.ir import instructions, metadata

    counts = {"decompose": 0, "decompose hits": 0, "underlying": 0,
              "underlying hits": 0, "tbaa": 0, "mismatches": []}

    def hit(ptr, slot):
        memo = getattr(ptr, slot, None)
        return memo is not None and memo[0] == instructions.epoch

    def mismatch(what, ptr, got, want):
        text = f"{what}({ptr!r}): reused {got!r}, afresh {want!r}"
        counts["mismatches"].append(text)
        raise AliasMemoMismatch(text)

    decompose = basic_aa.decompose_pointer
    underlying = aliasing.underlying_object
    tbaa = metadata.tbaa_alias

    def checked_decompose(ptr):
        counts["decompose"] += 1
        counts["decompose hits"] += hit(ptr, "_decomp")
        got = decompose(ptr)
        want = basic_aa._decompose(ptr)
        if got != want:
            mismatch("decompose_pointer", ptr, got, want)
        return got

    def checked_underlying(ptr):
        counts["underlying"] += 1
        counts["underlying hits"] += hit(ptr, "_underlying")
        got = underlying(ptr)
        want = aliasing._underlying(ptr)
        if got is not want:
            mismatch("underlying_object", ptr, got, want)
        return got

    def checked_tbaa(a, b):
        counts["tbaa"] += 1
        got = tbaa(a, b)
        want = walked_tbaa_alias(a, b)
        if got != want:
            mismatch("tbaa_alias", (a, b), got, want)
        return got

    patched = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, original, wrapper in (
                ("decompose_pointer", decompose, checked_decompose),
                ("underlying_object", underlying, checked_underlying),
                ("tbaa_alias", tbaa, checked_tbaa)):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    try:
        yield counts
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def answer_premise(config, sequences):
    """Check the function memo's premise on ``sequences``: a function
    that gets the same ORAQL answers, in the same order, as in an
    earlier compile comes out with the same body hash.  The compiles
    are traced, so they bypass the memo.  Returns ``(repeats,
    mismatches)``: how often a (function, answers) pair came again, and
    the pairs whose hash differed."""
    from repro.oraql.compiler import Compiler
    from repro.oraql.sequence import DecisionSequence
    from repro.trace import QueryTrace
    from repro.trace.events import RESPONDER_ORAQL

    compiler = Compiler()
    seen = {}
    repeats, mismatches = 0, []
    for bits in sequences:
        if bits is None:
            continue
        trace = QueryTrace()
        prog = compiler.compile(config, DecisionSequence(bits),
                                oraql_enabled=True, trace=trace)
        answers = {}
        for rec in trace.records:
            if rec["t"] == "q" and rec["responder"] == RESPONDER_ORAQL:
                answers.setdefault(rec["function"], []).append(
                    rec["optimistic"])
        for name, fn_hash in prog.fn_hashes.items():
            key = (name, tuple(answers.get(name, ())))
            if key not in seen:
                seen[key] = fn_hash
                continue
            repeats += 1
            if seen[key] != fn_hash:
                mismatches.append(key)
        prog.release()
    compiler.drop_prefixes()
    return repeats, mismatches


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
