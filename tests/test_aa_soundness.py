"""Property-based soundness testing of the alias-analysis chain.

The one invariant everything rests on: when the chain answers
``no-alias`` for two locations, the accessed byte ranges must be
disjoint in *every* execution; ``must-alias`` means identical start
addresses.  We generate random access pairs over a small universe of
objects (two arrays, a struct, pointer arguments with concrete bindings)
and check the verdicts against ground-truth byte ranges.

ORAQL's entire premise is that the chain never lies in the conservative
direction — these tests pin that down.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AliasResult,
    LocationSize,
    MemoryLocation,
    build_aa_chain,
)
from repro.ir import (
    ArrayType,
    F64,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    StructType,
    VOID,
    ptr,
)

# ground-truth layout: object name -> (segment base, size in bytes)
SEGMENTS = {
    "A": (0, 128),       # double A[16]
    "B": (1000, 128),    # double B[16]
    "S": (2000, 24),     # struct { double x; double y; i64 t; }
}


@st.composite
def access(draw):
    """(object, element index, access bytes) with in-bounds ranges."""
    obj = draw(st.sampled_from(["A", "B", "S"]))
    if obj == "S":
        field = draw(st.integers(0, 2))
        return (obj, field, 8)
    idx = draw(st.integers(0, 15))
    return (obj, idx, 8)


def truth_range(a):
    obj, idx, size = a
    base, _ = SEGMENTS[obj]
    if obj == "S":
        off = idx * 8
    else:
        off = idx * 8
    return (base + off, base + off + size)


def overlap(r1, r2):
    return r1[0] < r2[1] and r2[0] < r1[1]


def build_pair(module, a, b):
    """Materialize both accesses as IR locations in one function."""
    fn = module.add_function(FunctionType(VOID, []), module.name + ".f")
    bb = fn.add_block("entry")
    bld = IRBuilder(bb)
    arrays = {
        "A": bld.alloca(ArrayType(F64, 16), name="A"),
        "B": bld.alloca(ArrayType(F64, 16), name="B"),
        "S": bld.alloca(StructType("S3", [F64, F64, I64],
                                   ["x", "y", "t"]), name="S"),
    }

    def loc(acc):
        obj, idx, size = acc
        g = bld.gep(arrays[obj], [0, idx])
        return MemoryLocation(g, LocationSize.precise_(size))

    la, lb = loc(a), loc(b)
    bld.ret()
    return fn, la, lb


_counter = [0]


@settings(max_examples=200, deadline=None)
@given(access(), access())
def test_chain_verdicts_sound_for_constant_accesses(a, b):
    _counter[0] += 1
    module = Module(f"snd{_counter[0]}")
    fn, la, lb = build_pair(module, a, b)
    aa = build_aa_chain()
    aa.current_function = fn
    verdict = aa.alias(la, lb)

    ra, rb = truth_range(a), truth_range(b)
    really_overlaps = overlap(ra, rb)
    if verdict is AliasResult.NO:
        assert not really_overlaps, (a, b, verdict)
    elif verdict is AliasResult.MUST:
        assert ra == rb, (a, b, verdict)
    elif verdict is AliasResult.PARTIAL:
        assert really_overlaps, (a, b, verdict)
    # MAY is always allowed (conservative)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(-4, 4))
def test_variable_index_geps_sound(i_val, j_val, delta):
    """a[i] vs a[i + delta] with i as a runtime argument: a no-alias
    verdict must hold for the concrete binding we chose."""
    _counter[0] += 1
    module = Module(f"var{_counter[0]}")
    fn = module.add_function(FunctionType(VOID, [I64]), "f", ["i"])
    bb = fn.add_block("entry")
    bld = IRBuilder(bb)
    arr = bld.alloca(ArrayType(F64, 32), name="a")
    base = bld.gep(arr, [0, 0])
    gi = bld.gep(base, [fn.args[0]])
    shifted = bld.add(fn.args[0], bld.i64(delta))
    gj = bld.gep(base, [shifted])
    bld.ret()

    aa = build_aa_chain()
    aa.current_function = fn
    P8 = LocationSize.precise_(8)
    verdict = aa.alias(MemoryLocation(gi, P8), MemoryLocation(gj, P8))

    # ground truth under the binding i := i_val (and j = i + delta)
    ra = (i_val * 8, i_val * 8 + 8)
    rb = ((i_val + delta) * 8, (i_val + delta) * 8 + 8)
    if verdict is AliasResult.NO:
        assert not overlap(ra, rb), (i_val, delta)
    if verdict is AliasResult.MUST:
        assert ra == rb, (i_val, delta)
    # structural expectation: same var cancels, so delta decides exactly
    if delta == 0:
        assert verdict is AliasResult.MUST
    else:
        assert verdict is AliasResult.NO


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 7))
def test_strided_accesses_gcd_sound(stride, r1, r2):
    """a[s*i + r1] vs a[s*j + r2]: the GCD rule may prove no-alias only
    when the residues keep every pair of elements disjoint."""
    _counter[0] += 1
    module = Module(f"gcd{_counter[0]}")
    fn = module.add_function(FunctionType(VOID, [I64, I64]), "f",
                             ["i", "j"])
    bb = fn.add_block("entry")
    bld = IRBuilder(bb)
    arr = bld.alloca(ArrayType(F64, 128), name="a")
    base = bld.gep(arr, [0, 0])
    si = bld.mul(fn.args[0], bld.i64(stride))
    sj = bld.mul(fn.args[1], bld.i64(stride))
    gi = bld.gep(bld.gep(base, [si]), [r1])
    gj = bld.gep(bld.gep(base, [sj]), [r2])
    bld.ret()

    aa = build_aa_chain()
    aa.current_function = fn
    P8 = LocationSize.precise_(8)
    verdict = aa.alias(MemoryLocation(gi, P8), MemoryLocation(gj, P8))
    if verdict is AliasResult.NO:
        # must be disjoint for ALL i, j: check a grid of bindings
        for i in range(0, 6):
            for j in range(0, 6):
                a0 = (stride * i + r1) * 8
                b0 = (stride * j + r2) * 8
                assert not overlap((a0, a0 + 8), (b0, b0 + 8)), (
                    stride, r1, r2, i, j)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.booleans())
def test_tbaa_never_contradicts_layout(i, j, same_type):
    """TBAA no-alias is a *type* claim; for accesses of the same scalar
    type it must never fire, whatever the addresses."""
    _counter[0] += 1
    module = Module(f"tb{_counter[0]}")
    fn = module.add_function(FunctionType(VOID, [ptr(F64)]), "f")
    bb = fn.add_block("entry")
    bld = IRBuilder(bb)
    gi = bld.gep(fn.args[0], [i])
    gj = bld.gep(fn.args[0], [j])
    bld.ret()
    td = module.tbaa.scalar("double")
    tl = module.tbaa.scalar("long")
    from repro.analysis import TypeBasedAA
    aa = TypeBasedAA()
    P8 = LocationSize.precise_(8)
    la = MemoryLocation(gi, P8, tbaa=td)
    lb = MemoryLocation(gj, P8, tbaa=td if same_type else tl)
    verdict = aa.alias(la, lb, fn)
    if same_type:
        assert verdict is AliasResult.MAY
    elif i == j:
        # strict aliasing genuinely allows this no-alias claim: accessing
        # the same memory as two distinct scalar types is UB in C
        assert verdict is AliasResult.NO
