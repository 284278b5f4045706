"""Tests for MemorySSA construction and the clobber walker."""

from repro.analysis import (
    LiveOnEntry,
    MemoryDef,
    MemoryPhi,
    MemorySSA,
    MemoryUse,
    build_aa_chain,
)
from repro.ir import F64, FunctionType, I1, I64, IRBuilder, VOID, ptr
from repro.oraql import DecisionSequence, OraqlAAPass


def make_aa(fn, oraql=None):
    aa = build_aa_chain(oraql=oraql)
    aa.current_function = fn
    return aa


class TestConstruction:
    def test_defs_uses_linked(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        st = b.store(b.f64(1.0), fn.args[0])
        ld = b.load(fn.args[0])
        b.ret()
        mssa = MemorySSA(fn, make_aa(fn), optimize_uses=False)
        d = mssa.access_of[st]
        u = mssa.access_of[ld]
        assert isinstance(d, MemoryDef)
        assert isinstance(u, MemoryUse)
        assert u.defining is d
        assert isinstance(d.defining, LiveOnEntry)

    def test_phi_at_join(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64), I1]), "f")
        e, t, f, j = (fn.add_block(n) for n in "etfj")
        b = IRBuilder(e)
        b.cond_br(fn.args[1], t, f)
        b.position_at_end(t)
        b.store(b.f64(1.0), fn.args[0])
        b.br(j)
        b.position_at_end(f)
        b.br(j)
        b.position_at_end(j)
        ld = b.load(fn.args[0])
        b.ret()
        mssa = MemorySSA(fn, make_aa(fn), optimize_uses=False)
        u = mssa.access_of[ld]
        assert isinstance(u.defining, MemoryPhi)
        assert len(u.defining.incoming) == 2


class TestWalker:
    def test_clobbering_store_found(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        st = b.store(b.f64(1.0), fn.args[0])
        ld = b.load(fn.args[0])
        b.ret()
        mssa = MemorySSA(fn, make_aa(fn))
        clob = mssa.clobbering_access(ld)
        assert isinstance(clob, MemoryDef) and clob.inst is st

    def test_walker_skips_noalias_store(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        b.store(b.f64(2.0), x)          # cannot clobber the argument
        ld = b.load(fn.args[0])
        b.ret()
        mssa = MemorySSA(fn, make_aa(fn))
        assert isinstance(mssa.clobbering_access(ld), LiveOnEntry)

    def test_walker_consults_oraql(self, module):
        """A may-alias store between two arguments blocks the walk unless
        ORAQL answers optimistically."""
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), ptr(F64)]), "f", ["a", "b"])
        b = IRBuilder(fn.add_block("e"))
        st = b.store(b.f64(1.0), fn.args[1])
        ld = b.load(fn.args[0])
        b.ret()

        mssa = MemorySSA(fn, make_aa(fn))
        clob = mssa.clobbering_access(ld)
        assert isinstance(clob, MemoryDef) and clob.inst is st

        oraql = OraqlAAPass(DecisionSequence())  # all optimistic
        mssa2 = MemorySSA(fn, make_aa(fn, oraql))
        assert isinstance(mssa2.clobbering_access(ld), LiveOnEntry)
        assert oraql.opt_unique >= 1

    def test_loop_carried_clobber_is_conservative(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        pre, hdr, body, ex = (fn.add_block(n) for n in ("p", "h", "b", "x"))
        b = IRBuilder(pre)
        b.br(hdr)
        b.position_at_end(hdr)
        i = b.phi(I64)
        ld = b.load(fn.args[0])
        c = b.icmp("slt", i, b.i64(4))
        b.cond_br(c, body, ex)
        b.position_at_end(body)
        b.store(b.fadd(ld, b.f64(1.0)), fn.args[0])
        i2 = b.add(i, b.i64(1))
        b.br(hdr)
        i.add_incoming(b.i64(0), pre)
        i.add_incoming(i2, body)
        b.position_at_end(ex)
        b.ret()
        mssa = MemorySSA(fn, make_aa(fn))
        clob = mssa.clobbering_access(ld)
        # the load sees either the loop phi or the body store
        assert isinstance(clob, (MemoryPhi, MemoryDef))
        assert not isinstance(clob, LiveOnEntry)

    def test_use_optimization_attributes_queries(self, module):
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.store(b.f64(1.0), fn.args[1])
        b.load(fn.args[0])
        b.ret()
        aa = make_aa(fn)
        aa.current_pass = "Memory SSA"
        MemorySSA(fn, aa, optimize_uses=True)
        assert aa.queries_by_issuer.get("Memory SSA", 0) >= 1
