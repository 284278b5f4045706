"""The alias layer's reused pointer facts (DESIGN.md §5i).

``decompose_pointer`` and ``underlying_object`` keep their result on the
pointer, stamped with the IR mutation epoch that every operand write
moves; TBAA nodes precompute their ancestry; memory locations are slot
values.  These tests check that each operand write invalidates the
memo, that the precomputed TBAA answers are the ancestor walk's, that
locations compare and hash as the frozen dataclasses they replaced,
and, with the referee of ``tests/helpers.py``, that a probing session
of every row reuses no stale fact.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass
from itertools import product
from typing import Optional

import pytest

from helpers import (
    AliasMemoMismatch,
    alias_memo_referee,
    walked_is_ancestor_of,
    walked_tbaa_alias,
)
from repro.analysis import (
    AliasResult,
    BasicAA,
    LocationSize,
    MemoryLocation,
    decompose_pointer,
    underlying_object,
)
from repro.analysis import aliasing, basic_aa
from repro.ir import (
    F64,
    ArrayType,
    I1,
    I64,
    VOID,
    AliasScope,
    FunctionType,
    IRBuilder,
    Module,
    ScopedAliasMD,
    TBAAForest,
    TBAANode,
    instructions,
    ptr,
    tbaa_alias,
)
from repro.ir.clone import clone_module, move_body
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.workloads import get_config
from repro.workloads.base import row_names

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "expected.json")
P8 = LocationSize.precise_(8)


@pytest.fixture
def fnb():
    module = Module("memo")
    fn = module.add_function(
        FunctionType(VOID, [ptr(F64), ptr(F64), I64, I1]), "f",
        ["a", "b", "n", "c"])
    return fn, IRBuilder(fn.add_block("entry"))


def current(ptr, slot="_decomp"):
    """Whether ``ptr`` keeps a fact for the present epoch."""
    memo = getattr(ptr, slot)
    return memo is not None and memo[0] == instructions.epoch


def loc(v):
    return MemoryLocation(v, P8)


class TestEpochInvalidation:
    def test_a_second_query_reuses_the_fact(self, fnb):
        fn, b = fnb
        a, _, n, _ = fn.args
        p = b.gep(a, [b.add(n, b.i64(1))])
        first = decompose_pointer(p)
        assert current(p)
        assert decompose_pointer(p) is first
        assert underlying_object(p) is a and current(p, "_underlying")

    def test_rauw_of_a_gep_index_mid_pass(self, fnb):
        """Two queries of one pass, with an index rewritten between
        them (as InstCombine's RAUW does): the second sees the new
        index."""
        fn, b = fnb
        a, _, n, _ = fn.args
        i1, i2 = b.add(n, b.i64(1)), b.add(n, b.i64(2))
        p, q = b.gep(a, [i1]), b.gep(a, [i2])
        aa = BasicAA()
        assert aa.alias(loc(p), loc(q), fn) is AliasResult.NO
        assert current(p) and current(q)
        i2.replace_all_uses_with(i1)
        assert not current(q)
        assert aa.alias(loc(p), loc(q), fn) is AliasResult.MUST
        assert decompose_pointer(q) == basic_aa._decompose(q)

    def test_set_operand(self, fnb):
        fn, b = fnb
        a, other, n, _ = fn.args
        p = b.gep(a, [n])
        assert decompose_pointer(p)[0] is a
        assert underlying_object(p) is a
        p.set_operand(0, other)
        assert not current(p) and not current(p, "_underlying")
        assert decompose_pointer(p)[0] is other
        assert underlying_object(p) is other

    def test_phi_remove_incoming(self, fnb):
        fn, b = fnb
        a, _, n, c = fn.args
        left, right, join = (fn.add_block(x) for x in ("l", "r", "j"))
        b.cond_br(c, left, right)
        for block in (left, right):
            b.position_at_end(block)
            b.br(join)
        b.position_at_end(join)
        phi = b.phi(I64)
        phi.add_incoming(n, left)
        phi.add_incoming(b.i64(4), right)
        p = b.gep(a, [phi])
        before = decompose_pointer(p)
        assert before[2] == ((phi, 8),)
        phi.remove_incoming(right)
        assert not current(p)
        assert decompose_pointer(p) == basic_aa._decompose(p)

    def test_erase(self, fnb):
        fn, b = fnb
        a, _, n, _ = fn.args
        dead = b.add(n, b.i64(7))
        p = b.gep(a, [n])
        q = b.gep(p, [b.i64(1)])
        decompose_pointer(q)
        underlying_object(q)
        dead.erase_from_parent()
        assert not current(q) and not current(q, "_underlying")
        # an erased pointer forgets its facts: they point into the IR
        q.erase_from_parent()
        assert q._decomp is None and q._underlying is None

    def test_clone(self, fnb):
        fn, b = fnb
        a, _, n, _ = fn.args
        p = b.gep(a, [b.mul(n, b.i64(3))])
        decompose_pointer(p)
        epoch = instructions.epoch
        copy = p.clone()
        assert instructions.epoch > epoch
        assert copy._decomp is None and copy._underlying is None
        assert decompose_pointer(copy) == basic_aa._decompose(p)

    def test_select_underlying_object(self, fnb):
        fn, b = fnb
        a, other, n, c = fn.args
        s = b.select(c, b.gep(a, [n]), b.gep(a, [b.i64(2)]))
        assert underlying_object(s) is a
        s.set_operand(2, b.gep(other, [n]))
        assert underlying_object(s) is s

    def test_module_copies_start_without_facts(self):
        cfg = get_config("TestSNAP-seq")
        module = Compiler().compile(cfg, oraql_enabled=False).module
        pointers = [i for fn in module.defined_functions()
                    for i in fn.instructions()
                    if isinstance(i, instructions.GEPInst)]
        assert pointers
        for p in pointers:
            decompose_pointer(p)
            underlying_object(p)
        copy = clone_module(module)
        assert all(i._decomp is None and i._underlying is None
                   for fn in copy.defined_functions()
                   for i in fn.instructions())

    def test_a_moved_body_drops_its_facts(self):
        """A moved body's operands are re-pointed at the new module's
        globals: its facts, which name the old module's, go."""
        def module_with(name):
            module = Module(name)
            g = module.add_global(ArrayType(F64, 4), "g")
            fn = module.add_function(FunctionType(VOID, [I64]), "f", ["i"])
            return module, g, fn

        old, old_g, src = module_with("old")
        b = IRBuilder(src.add_block("entry"))
        p = b.gep(old_g, [b.i64(0), src.args[0]])
        b.ret()
        assert decompose_pointer(p)[0] is old_g
        assert underlying_object(p) is old_g
        _, new_g, dst = module_with("new")
        move_body(src, dst)
        assert all(i._decomp is None and i._underlying is None
                   for i in dst.instructions())
        assert decompose_pointer(p)[0] is new_g
        assert underlying_object(p) is new_g

    def test_the_referee_catches_a_stale_fact(self, fnb):
        fn, b = fnb
        a, other, n, _ = fn.args
        p, q = b.gep(a, [n]), b.gep(a, [b.i64(1)])
        with alias_memo_referee() as counts:
            decompose_pointer(p)
            p._decomp = (instructions.epoch, (other, 0, ()))
            with pytest.raises(AliasMemoMismatch):
                BasicAA().alias(loc(p), loc(q), fn)
        assert counts["decompose hits"] >= 1
        assert len(counts["mismatches"]) == 1
        # the block restored the unchecked functions
        assert basic_aa.decompose_pointer is decompose_pointer
        assert aliasing.underlying_object is underlying_object


def _module_nodes(module):
    """Every TBAA node a module's instructions carry, with ancestors."""
    nodes = {}
    for fn in module.defined_functions():
        for inst in fn.instructions():
            node = inst.tbaa
            while node is not None:
                nodes[node._id] = node
                node = node.parent
    return list(nodes.values())


class TestTBAAAncestry:
    def test_every_node_pair_of_a_module_answers_as_the_walk(self):
        cfg = get_config("LULESH-seq")
        module = Compiler().compile(cfg, oraql_enabled=False).module
        forest = TBAAForest()  # a second tree, with struct paths
        dbl = forest.scalar("double")
        nodes = _module_nodes(module) + [
            forest.root, forest.char, dbl,
            forest.struct_field("S", "x", dbl),
            forest.struct_field("S", "y", dbl),
            forest.struct_field("T", "s", forest.struct_field("S", "x",
                                                              dbl))]
        assert len(nodes) > 8
        assert any(n.parent is not None and n.parent.parent is not None
                   and n.parent.parent.parent is not None for n in nodes)
        for a, b in product(nodes + [None], repeat=2):
            assert tbaa_alias(a, b) == walked_tbaa_alias(a, b), (a, b)
            if a is not None and b is not None:
                assert a.is_ancestor_of(b) == \
                    walked_is_ancestor_of(a, b), (a, b)
        for node in nodes:
            top = node
            while top.parent is not None:
                top = top.parent
            assert node.root() is top

    def test_a_node_is_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            forest = TBAAForest()
            forest.struct_field("S", "x", forest.scalar("int"))
            del forest
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = [o for o in gc.garbage if isinstance(o, TBAANode)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []


@dataclass(frozen=True)
class _FrozenSize:
    """``LocationSize`` as a frozen dataclass, before it had slots."""

    value: Optional[int]
    precise: bool = True


@dataclass(frozen=True)
class _FrozenLocation:
    """``MemoryLocation`` as a frozen dataclass, before it had slots."""

    ptr: object
    size: _FrozenSize
    tbaa: Optional[TBAANode] = None
    scoped: Optional[ScopedAliasMD] = None


class TestLocationValues:
    def test_sizes_compare_and_hash_as_before(self):
        sizes = [(8, True), (8, False), (4, True), (None, False)]
        for (v, p), (w, q) in product(sizes, repeat=2):
            new, old = LocationSize(v, p), _FrozenSize(v, p)
            assert hash(new) == hash(old)
            assert (new == LocationSize(w, q)) == (old == _FrozenSize(w, q))
        assert LocationSize.precise_(8) is LocationSize.precise_(8)
        assert LocationSize.precise_(8) == LocationSize(8)
        assert LocationSize(8) != (8, True)
        assert repr(LocationSize(8)) == \
            repr(_FrozenSize(8)).replace("_FrozenSize", "LocationSize")

    def test_locations_compare_and_hash_as_before(self, fnb):
        fn, _ = fnb
        forest = TBAAForest()
        scope = ScopedAliasMD((AliasScope("s", "d"),), ())
        fields = list(product(fn.args[:2], [(8, True), (None, False)],
                              [None, forest.scalar("int")], [None, scope]))
        for (p, s, t, sc), (q, z, u, sd) in product(fields, repeat=2):
            new = MemoryLocation(p, LocationSize(*s), t, sc)
            old = _FrozenLocation(p, _FrozenSize(*s), t, sc)
            assert hash(new) == hash(old)
            other_new = MemoryLocation(q, LocationSize(*z), tbaa=u,
                                       scoped=sd)
            other_old = _FrozenLocation(q, _FrozenSize(*z), u, sd)
            assert (new == other_new) == (old == other_old)
        a = MemoryLocation(fn.args[0], P8, forest.char, scope)
        assert a.with_ptr(fn.args[1]) == MemoryLocation(
            fn.args[1], P8, forest.char, scope)
        assert a.with_size(LocationSize(None, False)).size == \
            LocationSize(None, False)
        assert a != (a.ptr, a.size, a.tbaa, a.scoped)


# -- the referee on every row ------------------------------------------------

with open(EXPECTED) as _f:
    _EXPECTED = json.load(_f)


@pytest.mark.parametrize("row", row_names())
def test_a_session_reuses_no_stale_fact(row):
    """A chunked probing session of the row under the referee: every
    reused decomposition and underlying object equals its fresh
    computation, every TBAA verdict the ancestor walk's, and the answers
    are the row's (``bench/expected.json``)."""
    with alias_memo_referee() as counts:
        report = ProbingDriver(get_config(row)).run()
    assert counts["mismatches"] == []
    assert not report.failed, report.error
    assert counts["decompose hits"] > 0
    assert counts["tbaa"] > 0
    expected = _EXPECTED[row]
    assert report.pessimistic_indices == expected["pessimistic_indices"]
    assert report.final_exe_hash == expected["final_exe_hash"]
