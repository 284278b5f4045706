"""Tests for the scalar optimization passes (mem2reg, instcombine, DCE,
SimplifyCFG, EarlyCSE, GVN, DSE) — both that they fire and that they
stay sound."""

from repro.frontend import compile_source
from repro.ir import (
    AllocaInst,
    F64,
    FunctionType,
    I64,
    IRBuilder,
    LoadInst,
    PhiInst,
    StoreInst,
    VOID,
    ptr,
    verify_module,
)
from repro.passes import CompilationContext, PassManager, parse_pipeline

from helpers import differential, run_main


def run_passes(module, spec):
    ctx = CompilationContext(module, verify_each=True)
    PassManager(ctx).run(parse_pipeline(spec))
    verify_module(module)
    return ctx


class TestMem2Reg:
    def test_promotes_scalar_alloca(self):
        src = """
        int main() {
          int x = 2;
          x = x + 3;
          printf("%d\\n", x);
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(m, "simplifycfg,mem2reg")
        main = m.get_function("main")
        allocas = [i for i in main.instructions()
                   if isinstance(i, AllocaInst)]
        assert allocas == []
        run = run_main(m)
        assert run.output() == "5\n"

    def test_phi_insertion_across_branches(self):
        src = """
        int main() {
          int x = 1;
          int c = 3;
          if (c > 2) { x = 10; } else { x = 20; }
          printf("%d\\n", x);
          return 0;
        }
        """
        m = compile_source(src)
        run_passes(m, "simplifycfg,mem2reg")
        assert run_main(m).output() == "10\n"

    def test_loop_carried_promotion(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 5; i++) { s = s + i; }
          printf("%d\\n", s);
          return 0;
        }
        """
        m = compile_source(src)
        run_passes(m, "simplifycfg,mem2reg")
        main = m.get_function("main")
        assert any(isinstance(i, PhiInst) for i in main.instructions())
        assert run_main(m).output() == "10\n"

    def test_escaped_alloca_not_promoted(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("entry"))
        x = b.alloca(I64)
        b.store(b.i64(1), x)
        b.call("escape", [x], type=VOID)
        b.ret()
        run_passes(module, "mem2reg")
        assert any(isinstance(i, AllocaInst) for i in fn.instructions())


class TestInstCombineAndDCE:
    def test_constant_folding(self, module):
        fn = module.add_function(FunctionType(I64, []), "f")
        b = IRBuilder(fn.add_block("e"))
        v = b.add(b.i64(2), b.i64(3))
        w = b.mul(v, b.i64(4))
        b.ret(w)
        run_passes(module, "instcombine")
        ret = fn.entry.terminator
        from repro.ir import ConstantInt
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 20

    def test_identities(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        b = IRBuilder(fn.add_block("e"))
        v = b.add(fn.args[0], b.i64(0))
        w = b.mul(v, b.i64(1))
        b.ret(w)
        run_passes(module, "instcombine,dce")
        assert fn.num_instructions() == 1  # just the ret

    def test_zext_icmp_fold(self, module):
        """The frontend's (zext i1) != 0 condition detour must fold."""
        fn = module.add_function(FunctionType(VOID, [I64]), "f")
        e, t, f = (fn.add_block(n) for n in "etf")
        b = IRBuilder(e)
        c = b.icmp("slt", fn.args[0], b.i64(5))
        z = b.cast("zext", c, I64)
        c2 = b.icmp("ne", z, b.i64(0))
        b.cond_br(c2, t, f)
        for bb in (t, f):
            b.position_at_end(bb)
            b.ret()
        run_passes(module, "instcombine,dce")
        term = e.terminator
        assert term.condition is c

    def test_dce_keeps_side_effects(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.store(b.f64(1.0), fn.args[0])
        b.call("printf", [fn.args[0]], type=I64)  # unused result
        b.ret()
        run_passes(module, "dce")
        ops = [i.opcode for i in fn.instructions()]
        assert "store" in ops and "call" in ops


class TestSimplifyCFG:
    def test_constant_branch_folding(self):
        src = """
        int main() {
          if (1 < 2) { printf("yes\\n"); } else { printf("no\\n"); }
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(m, "mem2reg,instcombine,simplifycfg,dce")
        assert ctx.stats.get("Simplify the CFG", "# branches folded") >= 1
        assert run_main(m).output() == "yes\n"

    def test_unreachable_block_removal(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        e = fn.add_block("e")
        dead = fn.add_block("dead")
        b = IRBuilder(e)
        b.ret()
        b.position_at_end(dead)
        b.ret()
        run_passes(module, "simplifycfg")
        assert dead not in fn.blocks

    def test_block_merging(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        a = fn.add_block("a")
        c = fn.add_block("c")
        b = IRBuilder(a)
        b.br(c)
        b.position_at_end(c)
        b.ret()
        run_passes(module, "simplifycfg")
        assert len(fn.blocks) == 1


class TestEarlyCSE:
    def test_expression_cse_across_constant_instances(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        b = IRBuilder(fn.add_block("e"))
        v1 = b.mul(fn.args[0], b.i64(3))
        v2 = b.mul(fn.args[0], b.i64(3))  # distinct ConstantInt objects
        b.ret(b.add(v1, v2))
        ctx = run_passes(module, "early-cse")
        assert ctx.stats.get("Early CSE", "# instructions eliminated") == 1

    def test_load_cse_blocked_by_may_alias_store(self, module):
        fn = module.add_function(
            FunctionType(F64, [ptr(F64), ptr(F64)]), "f", ["a", "b"])
        b = IRBuilder(fn.add_block("e"))
        l1 = b.load(fn.args[0])
        b.store(b.f64(9.0), fn.args[1])   # may clobber a
        l2 = b.load(fn.args[0])
        b.ret(b.fadd(l1, l2))
        run_passes(module, "early-cse")
        loads = [i for i in fn.instructions() if isinstance(i, LoadInst)]
        assert len(loads) == 2  # conservative: both kept

    def test_load_cse_across_noalias_store(self, module):
        fn = module.add_function(FunctionType(F64, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        l1 = b.load(fn.args[0])
        b.store(b.f64(9.0), x)            # provably no-alias
        l2 = b.load(fn.args[0])
        b.ret(b.fadd(l1, l2))
        run_passes(module, "early-cse")
        loads = [i for i in fn.instructions() if isinstance(i, LoadInst)]
        assert len(loads) == 1

    def test_store_to_load_forwarding(self, module):
        fn = module.add_function(FunctionType(F64, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.store(b.f64(4.0), fn.args[0])
        l = b.load(fn.args[0])
        b.ret(l)
        run_passes(module, "early-cse,dce")
        assert not any(isinstance(i, LoadInst) for i in fn.instructions())

    def test_join_point_clears_loads(self):
        """Regression: available loads must not survive into loop headers
        (the miscompile found during bring-up)."""
        src = """
        int main() {
          double s = 0.0;
          double buf[4];
          buf[0] = 1.0;
          for (int i = 0; i < 3; i++) {
            s = s + buf[0];
            buf[0] = buf[0] + 1.0;
          }
          printf("%.1f\\n", s);
          return 0;
        }
        """
        out = differential(src)
        assert out == "6.0\n"


class TestGVN:
    def test_cross_block_store_to_load(self):
        src = """
        int main() {
          double x[4];
          x[1] = 7.5;
          double v;
          if (x[1] > 0.0) { v = x[1]; } else { v = 0.0; }
          printf("%.2f\\n", v);
          return 0;
        }
        """
        m = compile_source(src)
        ctx = run_passes(m, "simplifycfg,mem2reg,instcombine,early-cse,gvn")
        assert run_main(m).output() == "7.50\n"

    def test_redundant_load_elimination(self, module):
        fn = module.add_function(FunctionType(F64, [ptr(F64)]), "f")
        e, t = fn.add_block("e"), fn.add_block("t")
        b = IRBuilder(e)
        l1 = b.load(fn.args[0])
        c = b.fcmp("ogt", l1, b.f64(0.0))
        b.cond_br(c, t, t)
        b.position_at_end(t)
        l2 = b.load(fn.args[0])
        b.ret(b.fadd(l1, l2))
        ctx = run_passes(module, "gvn")
        assert ctx.stats.get("Global Value Numbering", "# loads deleted") == 1

    def test_clobbered_load_kept(self, module):
        fn = module.add_function(
            FunctionType(F64, [ptr(F64), ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        l1 = b.load(fn.args[0])
        b.store(b.f64(1.0), fn.args[1])
        l2 = b.load(fn.args[0])
        b.ret(b.fadd(l1, l2))
        ctx = run_passes(module, "gvn")
        assert ctx.stats.get("Global Value Numbering", "# loads deleted") == 0


class TestDSE:
    def test_overwritten_store_deleted(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.store(b.f64(1.0), fn.args[0])
        b.store(b.f64(2.0), fn.args[0])
        b.ret()
        ctx = run_passes(module, "dse")
        stores = [i for i in fn.instructions() if isinstance(i, StoreInst)]
        assert len(stores) == 1
        assert stores[0].value.value == 2.0

    def test_intervening_may_read_blocks(self, module):
        fn = module.add_function(
            FunctionType(F64, [ptr(F64), ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.store(b.f64(1.0), fn.args[0])
        l = b.load(fn.args[1])          # may read the stored value
        b.store(b.f64(2.0), fn.args[0])
        b.ret(l)
        run_passes(module, "dse")
        stores = [i for i in fn.instructions() if isinstance(i, StoreInst)]
        assert len(stores) == 2

    def test_never_loaded_local_stores_die(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        b.store(b.f64(1.0), x)
        b.store(b.f64(2.0), x)
        b.ret()
        ctx = run_passes(module, "dse")
        assert not any(isinstance(i, StoreInst) for i in fn.instructions())
        assert ctx.stats.get("Dead Store Elimination",
                             "# stores deleted") == 2

    def test_loaded_local_stores_survive(self, module):
        fn = module.add_function(FunctionType(F64, []), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        b.store(b.f64(1.0), x)
        l = b.load(x)
        b.ret(l)
        run_passes(module, "dse")
        assert any(isinstance(i, StoreInst) for i in fn.instructions())
