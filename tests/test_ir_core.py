"""Unit tests for values, instructions, blocks, functions, modules."""

import pytest

from repro.ir import (
    ArrayType,
    ConstantInt,
    F64,
    FunctionType,
    GEPInst,
    I1,
    I32,
    I64,
    IRBuilder,
    Module,
    PhiInst,
    StoreInst,
    StructType,
    UndefValue,
    VOID,
    VerificationError,
    print_module,
    module_hash,
    ptr,
    verify_function,
)


class TestUseLists:
    def test_operand_use_tracking(self, module):
        fn = module.add_function(FunctionType(I64, [I64, I64]), "f")
        bb = fn.add_block("entry")
        b = IRBuilder(bb)
        s = b.add(fn.args[0], fn.args[1])
        r = b.mul(s, s)
        b.ret(r)
        assert r in s.users
        assert s in fn.args[0].users

    def test_replace_all_uses_with(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        bb = fn.add_block("entry")
        b = IRBuilder(bb)
        a = b.add(fn.args[0], b.i64(1))
        c = b.mul(a, a)
        b.ret(c)
        new = ConstantInt(I64, 7)
        a.replace_all_uses_with(new)
        assert c.operands[0] is new and c.operands[1] is new
        assert c not in a.users

    def test_erase_drops_uses(self, module):
        fn = module.add_function(FunctionType(VOID, [I64]), "f")
        bb = fn.add_block("entry")
        b = IRBuilder(bb)
        a = b.add(fn.args[0], b.i64(1))
        b.ret()
        a.erase_from_parent()
        assert a not in fn.args[0].users
        assert a.parent is None

    def test_constant_int_canonical_signed(self):
        c = ConstantInt(I32, 0xFFFFFFFF)
        assert c.value == -1
        assert ConstantInt(I64, -5).value == -5
        assert ConstantInt(I1, 3).value == 1


class TestGEP:
    def test_result_type_array(self):
        base = UndefValue(ptr(ArrayType(F64, 8)))
        g = GEPInst(base, [ConstantInt(I64, 0), ConstantInt(I64, 3)])
        assert g.type == ptr(F64)

    def test_result_type_struct(self):
        s = StructType("p", [I64, F64], ["a", "b"])
        base = UndefValue(ptr(s))
        g = GEPInst(base, [ConstantInt(I64, 0), ConstantInt(I64, 1)])
        assert g.type == ptr(F64)

    def test_constant_offset(self):
        s = StructType("p", [I64, F64], ["a", "b"])
        base = UndefValue(ptr(s))
        g = GEPInst(base, [ConstantInt(I64, 2), ConstantInt(I64, 1)])
        assert g.constant_offset() == 2 * s.size() + 8

    def test_variable_offset_is_none(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64), I64]), "f")
        bb = fn.add_block("entry")
        b = IRBuilder(bb)
        g = b.gep(fn.args[0], [fn.args[1]])
        assert g.constant_offset() is None
        base, const, varp = g.decomposed()
        assert base is fn.args[0] and const == 0
        assert varp == [(fn.args[1], 8)]

    def test_struct_gep_requires_constant(self):
        s = StructType("p", [I64, F64])
        base = UndefValue(ptr(s))
        with pytest.raises(TypeError):
            GEPInst(base, [ConstantInt(I64, 0), UndefValue(I64)])

    @pytest.mark.parametrize("index", [-1, 2])
    def test_struct_gep_index_outside_struct(self, index):
        # -1 used to wrap to the last field (a ``double*`` GEP whose
        # offset then raised IndexError); 2 raised IndexError here
        s = StructType("", [I32, F64])
        base = UndefValue(ptr(s))
        with pytest.raises(TypeError, match="out of range"):
            GEPInst(base, [ConstantInt(I64, 0), ConstantInt(I64, index)])

    def test_struct_gep_index_outside_nested_struct(self):
        inner = StructType("in", [I32, F64])
        outer = StructType("out", [I64, ArrayType(inner, 4)])
        base = UndefValue(ptr(outer))
        ok = GEPInst(base, [ConstantInt(I64, 0), ConstantInt(I64, 1),
                            ConstantInt(I64, 3), ConstantInt(I64, 1)])
        assert ok.type == ptr(F64)
        assert ok.constant_offset() == 8 + 3 * 16 + 8
        with pytest.raises(TypeError, match="out of range"):
            GEPInst(base, [ConstantInt(I64, 0), ConstantInt(I64, 1),
                           ConstantInt(I64, 3), ConstantInt(I64, -1)])


class TestBlocksAndCFG:
    def test_successors(self, module):
        fn = module.add_function(FunctionType(VOID, [I1]), "f")
        e = fn.add_block("e")
        t = fn.add_block("t")
        f = fn.add_block("f")
        b = IRBuilder(e)
        b.cond_br(fn.args[0], t, f)
        for bb in (t, f):
            b.position_at_end(bb)
            b.ret()
        assert e.successors == [t, f]
        assert t.predecessors == [e]

    def test_phi_incoming(self, module):
        fn = module.add_function(FunctionType(I64, [I1]), "f")
        e, t, j = (fn.add_block(x) for x in "etj")
        b = IRBuilder(e)
        b.cond_br(fn.args[0], t, j)
        b.position_at_end(t)
        b.br(j)
        b.position_at_end(j)
        phi = b.phi(I64)
        phi.add_incoming(b.i64(1), e)
        phi.add_incoming(b.i64(2), t)
        b.ret(phi)
        assert phi.incoming_for_block(t).value == 2
        phi.remove_incoming(t)
        assert phi.incoming_for_block(t) is None

    def test_insert_at_front_respects_phis(self, module):
        fn = module.add_function(FunctionType(VOID, []), "f")
        bb = fn.add_block("e")
        b = IRBuilder(bb)
        phi = PhiInst(I64)
        phi.parent = bb
        bb.instructions.insert(0, phi)
        inst = b.i64(1)
        from repro.ir import BinaryInst
        add = BinaryInst("add", inst, inst)
        bb.insert_at_front(add)
        assert bb.instructions[0] is phi
        assert bb.instructions[1] is add


class TestVerifier:
    def _fn(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
        return fn, IRBuilder(fn.add_block("entry"))

    def test_accepts_valid(self, module):
        fn, b = self._fn(module)
        v = b.load(fn.args[0])
        b.store(v, fn.args[0])
        b.ret()
        verify_function(fn)

    def test_missing_terminator(self, module):
        fn, b = self._fn(module)
        b.load(fn.args[0])
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(fn)

    def test_use_before_def_same_block(self, module):
        fn, b = self._fn(module)
        v = b.load(fn.args[0])
        b.ret()
        # move the load after the ret by hand
        bb = fn.entry
        bb.instructions.remove(v)
        bb.instructions.append(v)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_store_type_mismatch(self, module):
        fn, b = self._fn(module)
        from repro.ir import StoreInst, ConstantInt
        bad = StoreInst.__new__(StoreInst)
        # constructing via Instruction to bypass the builder assert
        from repro.ir.instructions import Instruction
        Instruction.__init__(bad, VOID, [ConstantInt(I64, 1), fn.args[0]])
        bad.is_volatile = False
        fn.entry.append(bad)
        b.ret()
        with pytest.raises(VerificationError, match="type mismatch"):
            verify_function(fn)

    def test_void_return_value(self, module):
        fn, b = self._fn(module)
        from repro.ir import ReturnInst
        fn.entry.append(ReturnInst(ConstantInt(I64, 0)))
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestModule:
    def test_duplicate_function_rejected(self, module):
        module.add_function(FunctionType(VOID, []), "f")
        with pytest.raises(KeyError):
            module.add_function(FunctionType(VOID, []), "f")

    def test_declare_then_define_via_link(self):
        m1 = Module("a")
        f1 = m1.add_function(FunctionType(I64, [I64]), "callee")
        f1.is_declaration = True
        main = m1.add_function(FunctionType(I64, []), "main")
        b = IRBuilder(main.add_block("e"))
        call = b.call(f1, [b.i64(5)])
        b.ret(call)

        m2 = Module("b")
        f2 = m2.add_function(FunctionType(I64, [I64]), "callee")
        b2 = IRBuilder(f2.add_block("e"))
        b2.ret(b2.add(f2.args[0], b2.i64(1)))

        m1.link(m2)
        assert not m1.get_function("callee").is_declaration
        # the call must point at the definition (callee fixup)
        assert call.callee is m1.get_function("callee")

    def test_duplicate_definition_link_fails(self):
        m1, m2 = Module("a"), Module("b")
        for m in (m1, m2):
            f = m.add_function(FunctionType(VOID, []), "f")
            IRBuilder(f.add_block("e")).ret()
        with pytest.raises(KeyError):
            m1.link(m2)

    def test_add_string_interning(self, module):
        g = module.add_string("hi %d\n")
        assert g.is_constant
        assert g.value_type.count == len("hi %d\n") + 1

    def test_module_hash_changes_with_content(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.ret(b.add(fn.args[0], b.i64(1)))
        h1 = module_hash(module)
        # change the constant: hash must change
        fn.blocks[0].instructions[0].set_operand(1, ConstantInt(I64, 2))
        assert module_hash(module) != h1

    def test_print_module_roundtrip_stability(self, module):
        fn = module.add_function(FunctionType(I64, [I64]), "f")
        b = IRBuilder(fn.add_block("e"))
        b.ret(b.add(fn.args[0], b.i64(1)))
        assert print_module(module) == print_module(module)
