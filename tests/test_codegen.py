"""Tests for the codegen layer: lowering counts, register allocation,
GPU kernel static properties."""

from repro.codegen import (
    DEFAULT_REGS,
    codegen_function,
    compile_device_kernels,
    gpu_register_width,
    linear_scan,
    lower_function,
    register_class,
    run_codegen,
)
from repro.frontend import compile_source
from repro.ir import (
    F32,
    F64,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    VectorType,
    VOID,
    ptr,
)
from repro.passes import Statistics


class TestLowering:
    def test_register_classes(self):
        assert register_class(I64) == "int"
        assert register_class(ptr(F64)) == "int"
        assert register_class(F64) == "fp"
        assert register_class(VectorType(F64, 4)) == "fp"
        assert register_class(VOID) is None

    def test_gpu_register_width(self):
        assert gpu_register_width(F64) == 2
        assert gpu_register_width(F32) == 1
        assert gpu_register_width(I32) == 1
        assert gpu_register_width(ptr(F64)) == 2
        assert gpu_register_width(VectorType(F64, 4)) == 8

    def test_machine_counts(self, module):
        fn = module.add_function(
            FunctionType(F64, [ptr(F64), I64]), "f")
        b = IRBuilder(fn.add_block("e"))
        g = b.gep(fn.args[0], [fn.args[1]])     # 1 (variable index)
        g2 = b.gep(fn.args[0], [3])             # 0 (folds into addressing)
        v = b.load(g)                           # 1
        w = b.load(g2)                          # 1
        s = b.fadd(v, w)                        # 1
        b.ret(s)                                # 1
        lowered = lower_function(fn)
        assert lowered.machine_insts == 5

    def test_phi_becomes_copies(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        e, t, j = (fn.add_block(n) for n in "etj")
        b = IRBuilder(e)
        c = b.icmp("sgt", fn.args[0], b.i64(0))
        b.cond_br(c, t, j)
        b.position_at_end(t)
        v = b.add(fn.args[0], b.i64(1))
        b.br(j)
        b.position_at_end(j)
        phi = b.phi(I64)
        phi.add_incoming(b.i64(0), e)
        phi.add_incoming(v, t)
        b.ret(phi)
        lowered = lower_function(fn)
        assert lowered.phi_copies == 2

    def test_frame_bytes_from_allocas(self, module):
        from repro.ir import ArrayType
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("e"))
        b.alloca(ArrayType(F64, 10))
        b.alloca(I64)
        b.ret()
        assert lower_function(fn).frame_bytes == 88


class TestRegAlloc:
    def _pressure_fn(self, module, n_live):
        """n_live simultaneously-live float values."""
        fn = module.add_function(FunctionType(F64, [F64]), f"p{n_live}")
        b = IRBuilder(fn.add_block("e"))
        vals = [b.fmul(fn.args[0], b.f64(float(i + 1)))
                for i in range(n_live)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.fadd(acc, v)
        b.ret(acc)
        return fn

    def test_no_spills_under_pressure_limit(self, module):
        fn = self._pressure_fn(module, 8)
        res = linear_scan(lower_function(fn))
        assert res.spills == 0

    def test_spills_above_register_count(self, module):
        fn = self._pressure_fn(module, DEFAULT_REGS["fp"] + 8)
        res = linear_scan(lower_function(fn))
        assert res.spills > 0

    def test_spills_inflate_machine_insts(self, module):
        lo = codegen_function(self._pressure_fn(module, 4))
        hi = codegen_function(self._pressure_fn(module, 40))
        assert hi.spills > lo.spills
        assert hi.machine_insts > lo.machine_insts


class TestGPU:
    SRC = """
    __global__ void small(double* a, int n) {
      int t = cuda_thread_id();
      if (t < n) { a[t] = t * 2.0; }
    }
    __global__ void big(double* a, double* b, int n) {
      int t = cuda_thread_id();
      if (t < n) {
        double x0 = a[t]; double x1 = a[t + 1]; double x2 = a[t + 2];
        double x3 = a[t + 3]; double x4 = a[t + 4]; double x5 = a[t + 5];
        double x6 = a[t + 6]; double x7 = a[t + 7];
        b[t] = x0 * x1 + x2 * x3 + x4 * x5 + x6 * x7
             + x0 * x2 + x1 * x3 + x4 * x6 + x5 * x7;
      }
    }
    int main() { return 0; }
    """

    def test_kernel_info_collected(self):
        m = compile_source(self.SRC)
        kernels = compile_device_kernels(m)
        assert set(kernels) == {"small", "big"}
        assert kernels["big"].registers > kernels["small"].registers
        assert all(k.registers <= 255 for k in kernels.values())

    def test_host_functions_excluded(self):
        m = compile_source(self.SRC)
        assert "main" not in compile_device_kernels(m)

    def test_run_codegen_reports_stats(self):
        m = compile_source(self.SRC)
        stats = Statistics()
        out = run_codegen(m, stats, target="host")
        assert "main" in out
        assert stats.get("asm printer",
                         "# machine instructions generated") > 0


class TestStatistics:
    def test_counter_accumulation(self):
        s = Statistics()
        s.add("LICM", "# loads hoisted or sunk", 3)
        s.add("LICM", "# loads hoisted or sunk", 2)
        assert s.get("LICM", "# loads hoisted or sunk") == 5

    def test_report_format(self):
        s = Statistics()
        s.add("GVN", "# loads deleted", 7)
        text = s.report()
        assert "===--- Statistics Collected ---===" in text
        assert "7 GVN - # loads deleted" in text

    def test_by_pass(self):
        s = Statistics()
        s.add("A", "x", 1)
        s.add("A", "y", 2)
        s.add("B", "x", 3)
        assert s.by_pass("A") == {"x": 1, "y": 2}
