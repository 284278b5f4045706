"""Tests for the loop passes: LICM, loop deletion, loop-load-elim,
memcpyopt, machine sinking, and both vectorizers."""

from repro.frontend import compile_source
from repro.ir import (
    F64,
    FunctionType,
    I64,
    IRBuilder,
    StoreInst,
    VOID,
    VectorType,
    ptr,
    verify_module,
)
from repro.passes import CompilationContext, PassManager, parse_pipeline

from helpers import differential, run_main

PRE = "simplifycfg,mem2reg,instcombine,simplifycfg,early-cse"


def run_passes(module, spec):
    ctx = CompilationContext(module, verify_each=True)
    PassManager(ctx).run(parse_pipeline(spec))
    verify_module(module)
    return ctx


class TestLICM:
    def test_invariant_load_hoisted(self):
        src = """
        void f(double* out, double* scale, int n) {
          for (int i = 0; i < n; i++) {
            out[i] = scale[0] * 2.0;
          }
        }
        int main() {
          double o[8]; double s[1];
          s[0] = 3.0;
          f(o, s, 8);
          printf("%.1f\\n", o[7]);
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(m, PRE + ",licm")
        # scale[0] may alias out[i]: conservative pipeline cannot hoist
        assert ctx.stats.get("Loop Invariant Code Motion",
                             "# loads hoisted or sunk") == 0
        assert run_main(m).output() == "6.0\n"

    def test_invariant_load_hoisted_with_restrict(self):
        src = """
        void f(double* restrict out, double* restrict scale, int n) {
          for (int i = 0; i < n; i++) {
            out[i] = scale[0] * 2.0;
          }
        }
        int main() {
          double o[8]; double s[1];
          s[0] = 3.0;
          f(o, s, 8);
          printf("%.1f\\n", o[7]);
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(m, PRE + ",licm")
        assert ctx.stats.get("Loop Invariant Code Motion",
                             "# loads hoisted or sunk") >= 1
        assert run_main(m).output() == "6.0\n"

    def test_scalar_promotion_semantics(self):
        src = """
        int main() {
          double acc[1];
          double data[16];
          acc[0] = 0.0;
          for (int i = 0; i < 16; i++) { data[i] = i * 1.0; }
          for (int i = 0; i < 16; i++) {
            acc[0] = acc[0] + data[i];
          }
          printf("%.1f\\n", acc[0]);
          return 0;
        }
        """
        assert differential(src) == "120.0\n"

    def test_div_not_speculated(self):
        """A loop whose body divides only under a guard must not trap
        after LICM (division is not speculatable)."""
        src = """
        int main() {
          int n = 4;
          int d = 0;
          int s = 0;
          for (int i = 0; i < n; i++) {
            if (d > 0) { s = s + 100 / d; }
            s = s + i;
          }
          printf("%d\\n", s);
          return 0;
        }
        """
        assert differential(src) == "6\n"


class TestLoopDeletion:
    def test_effect_free_loop_deleted(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        pre, hdr, body, ex = (fn.add_block(n) for n in ("p", "h", "b", "x"))
        b = IRBuilder(pre)
        b.br(hdr)
        b.position_at_end(hdr)
        i = b.phi(I64)
        c = b.icmp("slt", i, b.i64(100))
        b.cond_br(c, body, ex)
        b.position_at_end(body)
        v = b.mul(i, b.i64(3))
        i2 = b.add(i, b.i64(1))
        b.br(hdr)
        i.add_incoming(b.i64(0), pre)
        i.add_incoming(i2, body)
        b.position_at_end(ex)
        b.ret()
        ctx = run_passes(module, "loop-deletion")
        assert ctx.stats.get("Delete dead loops", "# deleted loops") == 1
        assert len(fn.blocks) == 2

    def test_loop_with_store_survives(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        pre, hdr, body, ex = (fn.add_block(n) for n in ("p", "h", "b", "x"))
        b = IRBuilder(pre)
        b.br(hdr)
        b.position_at_end(hdr)
        i = b.phi(I64)
        c = b.icmp("slt", i, b.i64(4))
        b.cond_br(c, body, ex)
        b.position_at_end(body)
        g = b.gep(fn.args[0], [i])
        b.store(b.f64(1.0), g)
        i2 = b.add(i, b.i64(1))
        b.br(hdr)
        i.add_incoming(b.i64(0), pre)
        i.add_incoming(i2, body)
        b.position_at_end(ex)
        b.ret()
        ctx = run_passes(module, "loop-deletion")
        assert ctx.stats.get("Delete dead loops", "# deleted loops") == 0

    def test_used_value_blocks_deletion(self, module):
        fn = module.add_function(FunctionType(I64, []), "f")
        pre, hdr, body, ex = (fn.add_block(n) for n in ("p", "h", "b", "x"))
        b = IRBuilder(pre)
        b.br(hdr)
        b.position_at_end(hdr)
        i = b.phi(I64)
        c = b.icmp("slt", i, b.i64(4))
        b.cond_br(c, body, ex)
        b.position_at_end(body)
        i2 = b.add(i, b.i64(1))
        b.br(hdr)
        i.add_incoming(b.i64(0), pre)
        i.add_incoming(i2, body)
        b.position_at_end(ex)
        b.ret(i)  # out-of-loop use
        ctx = run_passes(module, "loop-deletion")
        assert ctx.stats.get("Delete dead loops", "# deleted loops") == 0

    def test_audit_chain_dse_then_deletion(self):
        """The Quicksilver audit pattern: overwritten summary store
        enables DSE, the dead reduction then enables loop deletion."""
        src = """
        int main() {
          double t[8];
          double rep[2];
          for (int i = 0; i < 8; i++) { t[i] = i * 1.0; }
          double c = 0.0;
          for (int i = 0; i < 8; i++) { c = c + t[i]; }
          rep[0] = c;
          rep[0] = 42.0;
          printf("%.1f\\n", rep[0]);
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(
            m, PRE + ",licm,gvn,dse,instcombine,dce,loop-deletion")
        assert ctx.stats.get("Delete dead loops", "# deleted loops") >= 1
        assert run_main(m).output() == "42.0\n"


class TestLoopVectorizer:
    VEC_SRC = """
    void axpy(double* restrict y, double* restrict x, double a, int n) {
      for (int i = 0; i < n; i++) {
        y[i] = y[i] + a * x[i];
      }
    }
    int main() {
      double x[23]; double y[23];
      for (int i = 0; i < 23; i++) { x[i] = i; y[i] = 2.0 * i; }
      axpy(y, x, 0.5, 23);
      double s = 0.0;
      for (int i = 0; i < 23; i++) { s = s + y[i]; }
      printf("%.2f\\n", s);
      return 0;
    }
    """

    def test_vectorizes_and_matches_scalar(self):
        out = differential(self.VEC_SRC)
        m = compile_source(self.VEC_SRC)
        ctx = run_passes(m, PRE + ",licm,gvn,loop-vectorize,instcombine,dce")
        assert ctx.stats.get("Loop Vectorizer", "# vectorized loops") >= 1
        assert run_main(m).output() == out

    def test_epilogue_handles_remainder(self):
        """23 = 5*4 + 3: the scalar epilogue covers the last 3 lanes."""
        m = compile_source(self.VEC_SRC)
        run_passes(m, PRE + ",loop-vectorize,instcombine,dce")
        axpy = m.get_function("axpy")
        vec_stores = [i for i in axpy.instructions()
                      if isinstance(i, StoreInst)
                      and isinstance(i.value.type, VectorType)]
        scal_stores = [i for i in axpy.instructions()
                       if isinstance(i, StoreInst)
                       and not isinstance(i.value.type, VectorType)]
        assert vec_stores and scal_stores

    def test_may_alias_blocks_vectorization(self):
        src = self.VEC_SRC.replace("restrict ", "")
        m = compile_source(src)
        run_passes(m, PRE + ",loop-vectorize")
        axpy = m.get_function("axpy")
        assert not any(isinstance(i, StoreInst)
                       and isinstance(i.value.type, VectorType)
                       for i in axpy.instructions())

    def test_fp_reduction_not_vectorized(self):
        src = """
        double total(double* restrict a, int n) {
          double s = 0.0;
          for (int i = 0; i < n; i++) { s = s + a[i]; }
          return s;
        }
        int main() {
          double a[16];
          for (int i = 0; i < 16; i++) { a[i] = 0.1 * i; }
          printf("%.6f\\n", total(a, 16));
          return 0;
        }
        """
        m = compile_source(src)
        run_passes(m, PRE + ",loop-vectorize")
        total = m.get_function("total")
        assert not any(isinstance(i.type, VectorType)
                       for i in total.instructions())
        differential(src)

    def test_int_reduction_vectorized_exactly(self):
        src = """
        int main() {
          int a[20];
          int s = 0;
          int out[20];
          for (int i = 0; i < 20; i++) { a[i] = i * 7 - 3; }
          for (int i = 0; i < 20; i++) {
            out[i] = a[i] * 2;
            s = s + a[i];
          }
          printf("%d %d\\n", s, out[19]);
          return 0;
        }
        """
        assert differential(src) == "1270 260\n"

    def test_dependent_loop_miscompiles_only_if_forced(self):
        """x[i+1] = f(x[i]) must not be vectorized by honest AA."""
        src = """
        int main() {
          double x[32];
          for (int i = 0; i < 32; i++) { x[i] = 1.0 + i; }
          double* src_p = x;
          double* dst_p = x + 1;
          for (int i = 0; i < 24; i++) {
            dst_p[i] = src_p[i] * 0.5 + 1.0;
          }
          double s = 0.0;
          for (int i = 0; i < 32; i++) { s = s + x[i]; }
          printf("%.6f\\n", s);
          return 0;
        }
        """
        differential(src)


class TestSLP:
    SRC = """
    void quad(double* restrict out, double* restrict a,
              double* restrict b) {
      out[0] = a[0] + b[0];
      out[1] = a[1] + b[1];
      out[2] = a[2] + b[2];
      out[3] = a[3] + b[3];
    }
    int main() {
      double a[4]; double b[4]; double o[4];
      for (int i = 0; i < 4; i++) { a[i] = i; b[i] = 10.0 * i; }
      quad(o, a, b);
      printf("%.1f %.1f\\n", o[0], o[3]);
      return 0;
    }
    """

    def test_slp_fires_and_matches(self):
        out = differential(self.SRC)
        m = compile_source(self.SRC)
        ctx = run_passes(m, PRE + ",slp-vectorizer,instcombine,dce")
        assert ctx.stats.get("SLP Vectorizer",
                             "# vector instructions generated") >= 3
        assert run_main(m).output() == out == "0.0 33.0\n"

    def test_slp_blocked_by_possible_overlap(self):
        src = self.SRC.replace("restrict ", "")
        m = compile_source(src)
        ctx = run_passes(m, PRE + ",slp-vectorizer")
        # out may alias a/b: the interleaved loads cannot be moved
        assert ctx.stats.get("SLP Vectorizer",
                             "# store groups vectorized") == 0


class TestLoopLoadElimAndMemcpy:
    def test_store_to_load_in_loop(self):
        src = """
        int main() {
          double a[8]; double b[8];
          for (int i = 0; i < 8; i++) { b[i] = i; }
          for (int i = 0; i < 8; i++) {
            a[i] = b[i] * 2.0;
            double t = a[i];
            b[i] = t + 1.0;
          }
          printf("%.1f %.1f\\n", a[7], b[7]);
          return 0;
        }
        """
        assert differential(src) == "14.0 15.0\n"

    def test_machine_sink_load_past_branch(self):
        src = """
        int main() {
          double a[4];
          a[0] = 5.0;
          double v = a[0];
          int c = 1;
          if (c > 0) { printf("%.1f\\n", v); }
          return 0;
        }
        """
        assert differential(src) == "5.0\n"
