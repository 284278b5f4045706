"""Tests for the VM: memory, arithmetic semantics, printf, runtime
shims (OpenMP/CUDA/MPI), traps, and accounting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.frontend import compile_source
from repro.ir import ArrayType, F32, F64, I8, I32, I64, Module, ptr
from repro.vm import (
    DeadlockError,
    Machine,
    Memory,
    MemoryTrap,
    MPIWorld,
    StepLimitExceeded,
    occupancy_factor,
)
from repro.vm.decode import FUSED
from repro.vm.interpreter import _unsigned, _wrap_int

from helpers import run_main


class TestMemory:
    def test_scalar_roundtrip(self):
        mem = Memory()
        a = mem.allocate(8)
        mem.store(a, F64, 3.25)
        assert mem.load(a, F64) == 3.25
        mem.store(a, I64, -17)
        assert mem.load(a, I64) == -17

    def test_f32_rounding(self):
        mem = Memory()
        a = mem.allocate(4)
        mem.store(a, F32, 0.1)
        v = mem.load(a, F32)
        assert v != 0.1 and abs(v - 0.1) < 1e-7

    def test_char_and_strings(self):
        mem = Memory()
        a = mem.allocate(32)
        mem.write_cstring(a, "hello")
        assert mem.read_cstring(a) == "hello"

    def test_vector_roundtrip(self):
        from repro.ir import VectorType
        mem = Memory()
        a = mem.allocate(32)
        vt = VectorType(F64, 4)
        mem.store(a, vt, (1.0, 2.0, 3.0, 4.0))
        assert mem.load(a, vt) == (1.0, 2.0, 3.0, 4.0)

    def test_out_of_bounds_traps(self):
        mem = Memory()
        with pytest.raises(MemoryTrap):
            mem.load(0, I64)          # null
        with pytest.raises(MemoryTrap):
            mem.load(mem.brk + 4096, I64)

    def test_copy_and_fill(self):
        mem = Memory()
        a = mem.allocate(16)
        b = mem.allocate(16)
        mem.store(a, I64, 42)
        mem.copy(b, a, 8)
        assert mem.load(b, I64) == 42
        mem.fill(a, 0, 16)
        assert mem.load(a, I64) == 0


class TestArithmetic:
    @given(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
    def test_add_wraps_like_i64(self, a, b):
        r = Machine._scalar_binop("add", a, b, I64)
        assert -(2**63) <= r < 2**63
        assert (r - (a + b)) % (2**64) == 0

    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    def test_sdiv_truncates_toward_zero(self, a, b):
        if b == 0:
            return
        r = Machine._scalar_binop("sdiv", a, b, I64)
        assert r == int(a / b)

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_srem_sign_follows_dividend(self, a, b):
        if b == 0:
            return
        r = Machine._scalar_binop("srem", a, b, I64)
        q = Machine._scalar_binop("sdiv", a, b, I64)
        assert q * b + r == a

    def test_division_by_zero_traps(self):
        from repro.vm import UndefinedBehavior
        with pytest.raises(UndefinedBehavior):
            Machine._scalar_binop("sdiv", 1, 0, I64)

    def test_fdiv_by_zero_is_inf(self):
        assert Machine._scalar_binop("fdiv", 1.0, 0.0, F64) == math.inf
        assert Machine._scalar_binop("fdiv", -1.0, 0.0, F64) == -math.inf

    @given(st.integers(-2**63, 2**63 - 1), st.integers(0, 63))
    def test_shifts(self, a, s):
        shl = Machine._scalar_binop("shl", a, s, I64)
        assert _wrap_int(a << s, 64) == shl
        lshr = Machine._scalar_binop("lshr", a, s, I64)
        assert lshr == _wrap_int(_unsigned(a, 64) >> s, 64)


class TestPrintf:
    def run_src(self, body):
        return run_main(compile_source(
            "int main() { %s return 0; }" % body)).output()

    def test_formats(self):
        out = self.run_src(
            r'printf("%d %5d %.3f %e %g %s %c %%\n", 42, 7, 3.14159, '
            r'1234.5, 0.5, "str", 88);')
        assert out == "42     7 3.142 1.234500e+03 0.5 str X %\n"

    def test_negative_and_unsigned(self):
        out = self.run_src(r'printf("%d %x\n", 0 - 5, 255);')
        assert out.startswith("-5 ff")


class TestOpenMP:
    SRC = """
    int main() {
      double a[100];
      #pragma omp parallel for
      for (int i = 0; i < 100; i++) { a[i] = i * 2.0; }
      double s = 0.0;
      for (int i = 0; i < 100; i++) { s = s + a[i]; }
      printf("%.1f\\n", s);
      return 0;
    }
    """

    def test_deterministic_across_thread_counts(self):
        outs = set()
        for t in (1, 2, 4, 7):
            m = run_main(compile_source(self.SRC), num_threads=t)
            outs.add(m.output())
        assert outs == {"9900.0\n"}

    def test_zero_trip_region(self):
        src = self.SRC.replace("i < 100", "i < 0").replace(
            'printf("%.1f\\n", s);', 'printf("ok\\n");')
        src = src.replace("s = s + a[i];", "s = 0.0;")
        m = run_main(compile_source(src))
        assert "ok" in m.output()


class TestCUDA:
    def test_kernel_grid_covers_range(self):
        src = """
        __global__ void fill(double* a, int n) {
          int t = cuda_thread_id();
          int total = cuda_num_threads();
          for (int i = t; i < n; i += total) { a[i] = i + 0.5; }
        }
        int main() {
          double* a = (double*)malloc(40 * sizeof(double));
          launch(fill, 2, 8, a, 40);
          printf("%.1f %.1f\\n", a[0], a[39]);
          return 0;
        }
        """
        m = run_main(compile_source(src))
        assert m.output() == "0.5 39.5\n"
        assert m.kernel_launches.get("fill") == 1
        assert m.kernel_cycles.get("fill", 0) > 0

    def test_occupancy_factor_monotone(self):
        vals = [occupancy_factor(r) for r in (8, 32, 48, 80, 120, 160, 240)]
        assert vals == sorted(vals)
        assert vals[0] == 1.0 and vals[-1] > 1.3


class TestMPI:
    SRC = """
    int main() {
      int rank = mpi_comm_rank();
      int size = mpi_comm_size();
      double v = 1.0 + rank;
      double s = mpi_allreduce_sum_f64(v);
      double m = mpi_allreduce_max_f64(v);
      mpi_barrier();
      if (rank == 0) {
        printf("sum=%.1f max=%.1f ranks=%d\\n", s, m, size);
      }
      return 0;
    }
    """

    def test_allreduce(self):
        mod = compile_source(self.SRC)
        machines = [Machine(mod) for _ in range(4)]
        for m in machines:
            m.start("main")
        MPIWorld(machines).run()
        assert all(m.state == "done" for m in machines)
        out = "".join(m.output() for m in machines)
        assert out == "sum=10.0 max=4.0 ranks=4\n"

    def test_single_rank_collectives_are_local(self):
        m = run_main(compile_source(self.SRC), nranks=1)
        assert m.output() == "sum=1.0 max=1.0 ranks=1\n"

    def test_mismatched_collectives_deadlock(self):
        src = """
        int main() {
          if (mpi_comm_rank() == 0) { mpi_barrier(); }
          else { double x = mpi_allreduce_sum_f64(1.0); }
          return 0;
        }
        """
        mod = compile_source(src)
        machines = [Machine(mod) for _ in range(2)]
        for m in machines:
            m.start("main")
        with pytest.raises(DeadlockError):
            MPIWorld(machines).run()


class TestFailureModes:
    def test_step_limit(self):
        src = "int main() { while (1 < 2) { } return 0; }"
        m = Machine(compile_source(src), max_steps=10_000)
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"
        assert isinstance(m.error, StepLimitExceeded)

    def test_wild_pointer_traps(self):
        src = """
        int main() {
          double* p = (double*)0;
          p[0] = 1.0;
          return 0;
        }
        """
        m = Machine(compile_source(src))
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"

    def test_abort_traps(self):
        src = 'int main() { abort(); return 0; }'
        m = Machine(compile_source(src))
        m.start("main")
        m.run_to_completion()
        assert m.state == "trapped"

    def test_instruction_and_cycle_accounting(self):
        src = """
        int main() {
          double s = 0.0;
          for (int i = 0; i < 10; i++) { s = s + i; }
          printf("%.0f\\n", s);
          return 0;
        }
        """
        m = run_main(compile_source(src))
        assert m.instructions > 50
        assert m.cycles > m.instructions * 0.5


class TestFusedRuns:
    """Each straight-line run of ops executes as one generated function;
    a budget check that falls inside a run makes it go op by op, so
    every count, cycle sum and trap stays exact."""

    @pytest.mark.parametrize("row", ["XSBench-seq", "LULESH-mpi"])
    def test_polled_deadline_changes_nothing(self, row):
        # the deadline never fires, but its poll every WALL_CLOCK_POLL
        # instructions cuts runs at many offsets
        from repro.oraql.compiler import Compiler
        from repro.workloads.base import get_config

        prog = Compiler().compile(get_config(row))
        plain, polled = prog.run(), prog.run(wall_clock=1e9)
        assert plain.ok
        assert (polled.instructions, polled.cycles.hex(), polled.stdout) \
            == (plain.instructions, plain.cycles.hex(), plain.stdout)
        assert polled == plain

    def test_step_limit_lands_on_each_op_of_a_run(self):
        src = """
        int main() {
          long a = 7;
          long b = a * 3 + 1;
          long c = b ^ a;
          long d = c * b - a;
          printf("%ld\\n", d + c);
          return 0;
        }
        """
        module = compile_source(src)
        first = run_main(module)
        main = first.decoded.function(module.get_function("main"), 0)
        # main's entry block runs straight through: an op's index is
        # the number of instructions executed before it
        start, run = next((i, op) for i, op in enumerate(main.entry)
                          if op is not None and op[0] == FUSED
                          and op[1] >= 8)

        def trapped(max_steps):
            m = Machine(module, max_steps=max_steps, decoded=first.decoded)
            m.start("main")
            m.run_to_completion()
            assert isinstance(m.error, StepLimitExceeded)
            assert m.instructions == max_steps + 1
            return m.cycles

        cycles = trapped(start - 1) if start else 0.0
        for offset in range(8):
            cycles += 1.0 * run[3][offset][1]
            assert trapped(start + offset).hex() == cycles.hex()


    def test_step_limit_lands_on_each_op_of_a_threaded_run(self):
        """A run ending in a JUMP carries on into the run its target
        enters (with the JUMP's phi moves and cost): a budget check
        still lands on every op, on both sides of the edge."""
        from repro.ir import FunctionType, IRBuilder

        module = Module("t")
        fn = module.add_function(FunctionType(I64, []), "main")
        entry, body = fn.add_block("entry"), fn.add_block("body")
        done, other = fn.add_block("done"), fn.add_block("other")
        b = IRBuilder(entry)
        x = b.mul(b.add(b.i64(5), b.i64(2), "x"), b.i64(3), "y")
        b.br(body)
        b.position_at_end(body)
        p = b.phi(I64, "p")
        p.add_incoming(x, entry)
        z = b.sub(b.mul(p, p, "q"), b.i64(1), "z")
        b.cond_br(b.icmp("sgt", z, b.i64(0)), done, other)
        b.position_at_end(done)
        b.ret(z)
        b.position_at_end(other)
        b.ret(b.i64(0))

        first = run_main(module)
        assert first.retval == 440
        run = first.decoded.function(fn, 0).entry[0]
        # entry's 3 ops and body's 4 (the phi runs on the edge)
        assert run[0] == FUSED and run[1] == 7

        def trapped(max_steps):
            m = Machine(module, max_steps=max_steps, decoded=first.decoded)
            m.start("main")
            m.run_to_completion()
            assert isinstance(m.error, StepLimitExceeded)
            assert m.instructions == max_steps + 1
            return m.cycles

        cycles = 0.0
        for offset in range(7):
            cycles += 1.0 * run[3][offset][1]
            assert trapped(offset).hex() == cycles.hex()


class TestSharedCode:
    """A session decodes each function body once: programs whose
    function has the same name, printed body, argument count and cost
    table run one :class:`~repro.vm.decode.Code`, binding only their
    own template (global addresses, function values, callee code)."""

    @pytest.mark.parametrize("row,decodes", [("XSBench-seq", 21),
                                             ("LULESH-mpi", 14)])
    def test_session_decodes_each_key_once(self, monkeypatch, row, decodes):
        from repro.oraql.driver import ProbingDriver
        from repro.vm import decode
        from repro.workloads.base import get_config

        made = []
        real = decode._Decoder.run

        def run(self):
            made.append((self.fn.name, self.nargs))
            return real(self)

        monkeypatch.setattr(decode._Decoder, "run", run)
        report = ProbingDriver(get_config(row)).run()
        assert report.tests_run >= 3
        assert len(made) == decodes

    def test_shared_code_holds_no_value(self):
        """Nothing the shared code reaches is IR: a probe's release
        frees its IR whatever the session keeps."""
        import gc
        import sys

        from repro.ir.values import Value
        from repro.oraql.compiler import Compiler
        from repro.oraql.driver import ProbingDriver
        from repro.workloads.base import get_config

        compiler = Compiler()
        ProbingDriver(get_config("LULESH-mpi"), compiler=compiler).run()
        assert compiler._code
        skip = {id(vars(m)) for m in list(sys.modules.values())}
        seen, todo, found = set(), list(compiler._code.values()), []
        while todo:
            o = todo.pop()
            if id(o) in seen or id(o) in skip \
                    or isinstance(o, (type, type(sys))):
                continue
            seen.add(id(o))
            if isinstance(o, Value):
                found.append(o)
            todo.extend(gc.get_referents(o))
        assert len(seen) > 1000
        assert found == []

    def test_programs_share_code_per_cost_table(self):
        from repro.oraql.compiler import Compiler
        from repro.oraql.sequence import DecisionSequence
        from repro.vm import CostModel
        from repro.workloads.base import get_config

        compiler = Compiler()
        cfg = get_config("TestSNAP-seq")
        base = compiler.compile(cfg)
        probe = compiler.compile(cfg, sequence=DecisionSequence(),
                                 oraql_enabled=True)
        assert base.run().ok and probe.run().ok

        def code(prog, model=None):
            main = prog.module.get_function(cfg.entry)
            fn = prog.decoded(model).function(main, 0)
            assert fn.entry is not None  # the run entered it
            return fn

        a, b = code(base), code(probe)
        assert a is not b and a.entry is b.entry
        assert a.template is not b.template
        costs = CostModel()
        costs.costs["add"] += 1.0
        assert probe.run(cost_model=costs).cycles > probe.run().cycles
        assert code(probe, costs).entry is not b.entry


class TestRelease:
    """A finished run's Machines and their Memory, and a finished
    probe's IR, analyses and decoded code, are freed by reference
    counting alone, so none of them waits for the cyclic collector."""

    @pytest.mark.parametrize("row,fuel", [("TestSNAP-seq", None),
                                          ("LULESH-mpi", None),
                                          ("TestSNAP-seq", 1000)])
    def test_machines_freed_without_collection(self, monkeypatch, row,
                                               fuel):
        import gc
        import weakref

        import repro.oraql.compiler as compiler_mod
        import repro.workloads  # noqa: F401 — registers all variants
        from repro.workloads.base import get_config

        refs = []
        real = compiler_mod.Machine

        def recording(*args, **kwargs):
            m = real(*args, **kwargs)
            refs.append(weakref.ref(m))
            refs.append(weakref.ref(m.memory))
            return m

        monkeypatch.setattr(compiler_mod, "Machine", recording)
        prog = compiler_mod.Compiler().compile(get_config(row))
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):  # a rerun shares what the first run built
                refs.clear()
                result = prog.run(fuel=fuel)
                # a trapped run (fuel) keeps only the error's text
                assert result.ok == (fuel is None), result.error
                assert refs
                assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()

    def test_probe_code_freed_once_its_verdict_is_booked(self, monkeypatch):
        """A probe's decoded code (cyclic through loop edges and calls)
        is released after its verdict, so the previous probe's is gone
        when the next one compiles; the baseline's stays."""
        import gc
        import weakref

        from repro.oraql.driver import ProbingDriver
        from repro.vm import decode
        from repro.workloads.base import get_config

        made = []
        real_init = decode.DecodedModule.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        live_at_compile = []
        real_compile = ProbingDriver._compile

        def compile_(self, *args, **kwargs):
            live_at_compile.append(sum(r() is not None for r in made))
            return real_compile(self, *args, **kwargs)

        monkeypatch.setattr(decode.DecodedModule, "__init__", init)
        monkeypatch.setattr(ProbingDriver, "_compile", compile_)
        gc.collect()
        gc.disable()
        try:
            report = ProbingDriver(get_config("LULESH-mpi")).run()
        finally:
            gc.enable()
        assert report.tests_run >= 3
        # baseline, then each probe: only the baseline's code is live
        assert live_at_compile == [0] + [1] * (len(live_at_compile) - 1)

    @staticmethod
    def _track_modules(monkeypatch):
        """Record a weakref to every compiled module; returns, per
        compile, the indices of the earlier modules alive as it starts."""
        import weakref

        from repro.oraql.compiler import Compiler

        made, live_at_compile = [], []
        real = Compiler.compile

        def compile_(self, *args, **kwargs):
            live_at_compile.append(
                [i for i, ref in enumerate(made) if ref() is not None])
            prog = real(self, *args, **kwargs)
            made.append(weakref.ref(prog.module))
            return prog

        monkeypatch.setattr(Compiler, "compile", compile_)
        return live_at_compile

    @pytest.mark.parametrize("row,strategy", [
        ("LULESH-mpi", "chunked"),
        # the prior reads the first probe's IR through its query records
        ("XSBench-seq", "provenance-prior"),
    ])
    def test_probe_ir_freed_by_refcount(self, monkeypatch, row, strategy):
        """A probe's module, with its analyses and VM code, is freed by
        reference counting once its verdict is booked: with the
        collector off, only the baseline's module (compile 0) is alive
        when each later compile starts."""
        import gc

        from repro.oraql.driver import ProbingDriver
        from repro.workloads.base import get_config

        live = self._track_modules(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            report = ProbingDriver(get_config(row), strategy=strategy).run()
        finally:
            gc.enable()
        assert report.tests_run >= 3
        assert live == [[]] + [[0]] * (len(live) - 1)

    def test_importance_measurements_freed_by_refcount(self, monkeypatch):
        """The importance driver's measurement compiles are freed the
        same way; the probing phase's baseline and final programs stay,
        because its report hands them on."""
        import gc

        from repro.oraql.importance import ImportanceDriver
        from repro.workloads.base import get_config

        live = self._track_modules(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            report = ImportanceDriver(get_config("TestSNAP-seq")).run()
        finally:
            gc.enable()
        probing = report.probing.compiles
        assert report.compiles >= 3
        assert live[:probing] == [[]] + [[0]] * (probing - 1)
        assert live[probing:] == [[0, probing - 1]] * (len(live) - probing)

    @pytest.mark.parametrize("row", [
        "LULESH-mpi",
        "Quicksilver-openmp",  # links several units (dropped declarations)
        "MiniFE-openmp",       # SLP-vectorizes
    ])
    def test_session_leaves_no_instruction_for_the_collector(self, row):
        """Census: everything a session frees goes by reference
        counting, so a full collection with DEBUG_SAVEALL finds no
        instruction (the report keeps the baseline and final programs
        alive, so theirs are not garbage either)."""
        import gc

        from repro.ir.instructions import Instruction
        from repro.oraql.driver import ProbingDriver
        from repro.workloads.base import get_config

        gc.collect()
        gc.disable()
        try:
            report = ProbingDriver(get_config(row)).run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = sum(isinstance(o, Instruction) for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not report.failed
        assert found == 0

    def test_released_program_fails_loudly(self):
        """A released program keeps what was computed at compile time,
        and refuses to run or decode with an error naming it."""
        from repro.oraql.compiler import Compiler
        from repro.oraql.errors import ReleasedProgramError
        from repro.oraql.sequence import DecisionSequence
        from repro.workloads.base import get_config

        prog = Compiler().compile(get_config("TestSNAP-seq"),
                                  sequence=DecisionSequence(),
                                  oraql_enabled=True)

        def readable():
            return (prog.exe_hash, dict(prog.fn_hashes), prog.stats.rows(),
                    prog.analysis_counters, prog.pass_executions,
                    prog.no_alias_count, prog.oraql.unique_queries)

        before = readable()
        prog.release()
        prog.release()  # a second release is a no-op
        assert readable() == before
        assert prog.module.functions == {}
        for call in (prog.run, prog.decoded):
            with pytest.raises(ReleasedProgramError,
                               match=f"{prog.config.name} program") as err:
                call()
            assert prog.exe_hash[:12] in str(err.value)


    @pytest.mark.parametrize("row", ["LULESH-mpi", "XSBench-seq"])
    def test_dropped_report_leaves_no_ir_for_the_collector(self, row):
        """A program is released when its last reference drops: a
        finished report, dropped, leaves no IR value, block or use list
        for the cyclic collector (its baseline and final programs held
        all of them)."""
        import gc

        from repro.ir.basicblock import BasicBlock
        from repro.ir.uselist import UseList
        from repro.ir.values import Value
        from repro.oraql.driver import ProbingDriver
        from repro.workloads.base import get_config

        gc.collect()
        gc.disable()
        try:
            report = ProbingDriver(get_config(row)).run()
            assert report.final_program.run().ok
            del report
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = [type(o).__name__ for o in gc.garbage
                     if isinstance(o, (Value, BasicBlock, UseList))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []

    def test_dropped_program_spares_what_is_held_elsewhere(self):
        """Dropping a program frees nothing that is still in use: a
        module or decoded code held from outside keeps working."""
        from repro.oraql.compiler import Compiler
        from repro.workloads.base import get_config

        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        module = compiler.compile(cfg).module
        assert module.get_function(cfg.entry).blocks
        prog = compiler.compile(cfg)
        decoded = prog.decoded()
        del prog
        assert decoded.module.get_function(cfg.entry).blocks
        assert decoded.function(decoded.module.get_function(cfg.entry), 0)

    def test_half_built_program_drops_quietly(self):
        """A program whose construction failed has nothing to release."""
        import sys

        from repro.oraql.compiler import CompiledProgram

        hook, seen = sys.unraisablehook, []
        sys.unraisablehook = seen.append
        try:
            with pytest.raises(TypeError):
                CompiledProgram(None)
        finally:
            sys.unraisablehook = hook
        assert seen == []
