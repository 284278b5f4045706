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


class TestRelease:
    """A finished run's Machines and their Memory are freed by reference
    counting alone: nothing the run leaves behind (decoded code shared
    by the program, the MPI world, the result) points back at them, so
    no run's image waits for the cyclic collector."""

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
