"""Unit tests for the alias-analysis stack (BasicAA, TBAA,
ScopedNoAlias, GlobalsAA, CFL-Steens, CFL-Anders) and the chain."""

import pytest

from repro.analysis import (
    AliasResult,
    BasicAA,
    CFLAndersAA,
    CFLSteensAA,
    GlobalsAA,
    LocationSize,
    MemoryLocation,
    ModRefInfo,
    ScopedNoAliasAA,
    TypeBasedAA,
    build_aa_chain,
)
from repro.ir import (
    AliasScope,
    F64,
    FunctionType,
    I64,
    IRBuilder,
    ScopedAliasMD,
    VOID,
    ptr,
)

P8 = LocationSize.precise_(8)


def loc(v, size=P8, tbaa=None, scoped=None):
    return MemoryLocation(v, size, tbaa, scoped)


@pytest.fixture
def fnb(module):
    fn = module.add_function(
        FunctionType(VOID, [ptr(F64), ptr(F64), I64]), "f", ["a", "b", "n"])
    return fn, IRBuilder(fn.add_block("entry"))


class TestBasicAA:
    aa = BasicAA()

    def test_identical_pointers_must(self, fnb):
        fn, b = fnb
        assert self.aa.alias(loc(fn.args[0]), loc(fn.args[0]), fn) \
            is AliasResult.MUST

    def test_distinct_args_may(self, fnb):
        fn, b = fnb
        assert self.aa.alias(loc(fn.args[0]), loc(fn.args[1]), fn) \
            is AliasResult.MAY

    def test_distinct_allocas_noalias(self, fnb):
        fn, b = fnb
        x = b.alloca(F64)
        y = b.alloca(F64)
        assert self.aa.alias(loc(x), loc(y), fn) is AliasResult.NO

    def test_alloca_vs_global_noalias(self, fnb, module):
        fn, b = fnb
        g = module.add_global(F64, "g")
        x = b.alloca(F64)
        assert self.aa.alias(loc(x), loc(g), fn) is AliasResult.NO

    def test_distinct_globals_noalias(self, module, fnb):
        fn, _ = fnb
        g1 = module.add_global(F64, "g1")
        g2 = module.add_global(F64, "g2")
        assert self.aa.alias(loc(g1), loc(g2), fn) is AliasResult.NO

    def test_noncaptured_alloca_vs_arg(self, fnb):
        fn, b = fnb
        x = b.alloca(F64)
        b.store(b.f64(1.0), x)
        assert self.aa.alias(loc(x), loc(fn.args[0]), fn) is AliasResult.NO

    def test_captured_alloca_vs_loaded_pointer_may(self, module):
        fn = module.add_function(
            FunctionType(VOID, [ptr(ptr(F64))]), "g", ["pp"])
        b = IRBuilder(fn.add_block("entry"))
        x = b.alloca(F64)
        b.store(x, fn.args[0])          # address escapes
        p = b.load(fn.args[0])
        assert self.aa.alias(loc(x), loc(p), fn) is AliasResult.MAY

    def test_noalias_arg_vs_other_arg(self, module):
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), ptr(F64)]), "g", ["r", "o"])
        fn.args[0].attrs.add("noalias")
        assert self.aa.alias(loc(fn.args[0]), loc(fn.args[1]), fn) \
            is AliasResult.NO

    def test_same_base_disjoint_offsets(self, fnb):
        fn, b = fnb
        g0 = b.gep(fn.args[0], [0])
        g1 = b.gep(fn.args[0], [1])
        assert self.aa.alias(loc(g0), loc(g1), fn) is AliasResult.NO

    def test_same_base_same_offset_must(self, fnb):
        fn, b = fnb
        g0 = b.gep(fn.args[0], [3])
        g1 = b.gep(fn.args[0], [3])
        assert self.aa.alias(loc(g0), loc(g1), fn) is AliasResult.MUST

    def test_same_base_partial_overlap(self, fnb):
        fn, b = fnb
        g0 = b.gep(fn.args[0], [0])
        g1 = b.gep(fn.args[0], [1])
        big = LocationSize.precise_(16)
        assert self.aa.alias(loc(g0, big), loc(g1), fn) \
            is AliasResult.PARTIAL

    def test_same_base_variable_index_cancels(self, fnb):
        fn, b = fnb
        i = fn.args[2]
        g0 = b.gep(fn.args[0], [i])
        g1 = b.gep(b.gep(fn.args[0], [i]), [1])
        assert self.aa.alias(loc(g0), loc(g1), fn) is AliasResult.NO

    def test_same_base_different_variables_may(self, module):
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), I64, I64]), "g", ["a", "i", "j"])
        b = IRBuilder(fn.add_block("entry"))
        gi = b.gep(fn.args[0], [fn.args[1]])
        gj = b.gep(fn.args[0], [fn.args[2]])
        assert self.aa.alias(loc(gi), loc(gj), fn) is AliasResult.MAY

    def test_gcd_disambiguation(self, module):
        # a[2i] (8 bytes) vs a[2j+1] (8 bytes): stride 16, offsets 0 vs 8
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), I64, I64]), "g", ["a", "i", "j"])
        b = IRBuilder(fn.add_block("entry"))
        i2 = b.mul(fn.args[1], b.i64(2))
        j2 = b.mul(fn.args[2], b.i64(2))
        even = b.gep(fn.args[0], [i2])
        odd = b.gep(b.gep(fn.args[0], [j2]), [1])
        # NOTE: the scales seen are 8 for both var parts; gcd = 8 and the
        # delta is 8, so rem == 0: conservative MAY is also acceptable.
        r = self.aa.alias(loc(even), loc(odd), fn)
        assert r in (AliasResult.NO, AliasResult.MAY)

    def test_malloc_results_distinct(self, fnb):
        fn, b = fnb
        m1 = b.call("malloc", [b.i64(64)], type=ptr(F64))
        m2 = b.call("malloc", [b.i64(64)], type=ptr(F64))
        assert self.aa.alias(loc(m1), loc(m2), fn) is AliasResult.NO

    def test_malloc_vs_arg_noalias_when_uncaptured(self, fnb):
        fn, b = fnb
        m1 = b.call("malloc", [b.i64(64)], type=ptr(F64))
        assert self.aa.alias(loc(m1), loc(fn.args[0]), fn) is AliasResult.NO

    def test_null_never_aliases(self, fnb):
        from repro.ir import ConstantNull
        fn, b = fnb
        n = ConstantNull(ptr(F64))
        assert self.aa.alias(loc(n), loc(fn.args[0]), fn) is AliasResult.NO


class TestTBAA:
    def test_disjoint_scalar_tags(self, module, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        td = module.tbaa.scalar("double")
        ti = module.tbaa.scalar("long")
        a = loc(fn.args[0], tbaa=td)
        b_ = loc(fn.args[1], tbaa=ti)
        assert aa.alias(a, b_, fn) is AliasResult.NO

    def test_same_tag_may(self, module, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        td = module.tbaa.scalar("double")
        assert aa.alias(loc(fn.args[0], tbaa=td),
                        loc(fn.args[1], tbaa=td), fn) is AliasResult.MAY

    def test_char_aliases_everything(self, module, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        tc = module.tbaa.char
        td = module.tbaa.scalar("double")
        assert aa.alias(loc(fn.args[0], tbaa=tc),
                        loc(fn.args[1], tbaa=td), fn) is AliasResult.MAY

    def test_struct_field_vs_parent_scalar(self, module, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        td = module.tbaa.scalar("double")
        tf = module.tbaa.struct_field("SNA", "accum", td)
        assert aa.alias(loc(fn.args[0], tbaa=tf),
                        loc(fn.args[1], tbaa=td), fn) is AliasResult.MAY

    def test_sibling_fields_noalias(self, module, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        td = module.tbaa.scalar("double")
        f1 = module.tbaa.struct_field("S", "a", td)
        f2 = module.tbaa.struct_field("S", "b", td)
        assert aa.alias(loc(fn.args[0], tbaa=f1),
                        loc(fn.args[1], tbaa=f2), fn) is AliasResult.NO

    def test_missing_tag_may(self, fnb):
        fn, _ = fnb
        aa = TypeBasedAA()
        assert aa.alias(loc(fn.args[0]), loc(fn.args[1]), fn) \
            is AliasResult.MAY


class TestScopedNoAlias:
    def test_disjoint_scopes(self, fnb):
        fn, _ = fnb
        aa = ScopedNoAliasAA()
        sa = AliasScope("a", "f")
        sb = AliasScope("b", "f")
        la = loc(fn.args[0], scoped=ScopedAliasMD((sa,), (sb,)))
        lb = loc(fn.args[1], scoped=ScopedAliasMD((sb,), (sa,)))
        assert aa.alias(la, lb, fn) is AliasResult.NO

    def test_same_scope_may(self, fnb):
        fn, _ = fnb
        aa = ScopedNoAliasAA()
        sa = AliasScope("a", "f")
        la = loc(fn.args[0], scoped=ScopedAliasMD((sa,), ()))
        lb = loc(fn.args[1], scoped=ScopedAliasMD((sa,), ()))
        assert aa.alias(la, lb, fn) is AliasResult.MAY

    def test_missing_metadata_may(self, fnb):
        fn, _ = fnb
        aa = ScopedNoAliasAA()
        assert aa.alias(loc(fn.args[0]), loc(fn.args[1]), fn) \
            is AliasResult.MAY


class TestGlobalsAA:
    def test_private_global_vs_arg(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        g = module.add_global(F64, "g")
        b.store(b.f64(1.0), g)
        b.ret()
        aa = GlobalsAA(module)
        assert aa.alias(loc(g), loc(fn.args[0]), fn) is AliasResult.NO

    def test_address_taken_global_may(self, module):
        fn = module.add_function(
            FunctionType(VOID, [ptr(F64), ptr(ptr(F64))]), "f")
        b = IRBuilder(fn.add_block("e"))
        g = module.add_global(F64, "g")
        b.store(g, fn.args[1])          # address leaks to memory
        b.ret()
        aa = GlobalsAA(module)
        assert aa.alias(loc(g), loc(fn.args[0]), fn) is AliasResult.MAY


class TestCFL:
    @pytest.mark.parametrize("cls", [CFLSteensAA, CFLAndersAA])
    def test_distinct_allocas(self, cls, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        y = b.alloca(F64)
        b.ret()
        aa = cls()
        assert aa.alias(loc(x), loc(y), fn) is AliasResult.NO

    @pytest.mark.parametrize("cls", [CFLSteensAA, CFLAndersAA])
    def test_loaded_pointer_flows(self, cls, module):
        """p stored into a slot and reloaded must alias itself."""
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        b = IRBuilder(fn.add_block("e"))
        slot = b.alloca(ptr(F64))
        b.store(fn.args[0], slot)
        p = b.load(slot)
        b.ret()
        aa = cls()
        assert aa.alias(loc(p), loc(fn.args[0]), fn) is not AliasResult.NO

    @pytest.mark.parametrize("cls", [CFLSteensAA, CFLAndersAA])
    def test_escaped_alloca_vs_call_result(self, cls, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        b.call("opaque", [x], type=VOID)
        r = b.call("opaque2", [], type=ptr(F64))
        b.ret()
        aa = cls()
        assert aa.alias(loc(x), loc(r), fn) is not AliasResult.NO

    def test_anders_local_store_chain(self, module):
        """Alloca stored into non-escaping slot: loads from the slot may
        alias the alloca but not an unrelated alloca."""
        fn = module.add_function(FunctionType(VOID, []), "f")
        b = IRBuilder(fn.add_block("e"))
        x = b.alloca(F64)
        z = b.alloca(F64)
        slot = b.alloca(ptr(F64))
        b.store(x, slot)
        p = b.load(slot)
        b.ret()
        aa = CFLAndersAA()
        assert aa.alias(loc(p), loc(x), fn) is not AliasResult.NO
        assert aa.alias(loc(p), loc(z), fn) is AliasResult.NO


class TestChain:
    def test_first_definite_wins_and_counts(self, fnb):
        fn, b = fnb
        aa = build_aa_chain()
        aa.current_function = fn
        x = b.alloca(F64)
        y = b.alloca(F64)
        assert aa.alias(loc(x), loc(y)) is AliasResult.NO
        assert aa.no_alias_count == 1
        assert aa.no_alias_by_pass["basic-aa"] == 1

    def test_residual_goes_to_oraql(self, fnb):
        from repro.oraql import DecisionSequence, OraqlAAPass
        fn, b = fnb
        oraql = OraqlAAPass(DecisionSequence([1]))
        aa = build_aa_chain(oraql=oraql)
        aa.current_function = fn
        r = aa.alias(loc(fn.args[0]), loc(fn.args[1]))
        assert r is AliasResult.NO
        assert oraql.opt_unique == 1

    def test_mod_ref_for_store(self, fnb):
        fn, b = fnb
        aa = build_aa_chain()
        aa.current_function = fn
        x = b.alloca(F64)
        st = b.store(b.f64(0.0), x)
        other = loc(fn.args[0])
        assert aa.get_mod_ref(st, other) is ModRefInfo.NO
        assert aa.get_mod_ref(st, loc(x)) is ModRefInfo.MOD

    def test_mod_ref_calls(self, fnb):
        fn, b = fnb
        aa = build_aa_chain()
        aa.current_function = fn
        pure = b.call("sqrt", [b.f64(2.0)], type=F64)
        opaque = b.call("frob", [], type=VOID)
        l = loc(fn.args[0])
        assert aa.get_mod_ref(pure, l) is ModRefInfo.NO
        assert aa.get_mod_ref(opaque, l) is ModRefInfo.MODREF
