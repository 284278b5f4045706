"""Unit tests for the IR type system: sizes, layout, interning."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    StructType,
    VectorType,
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
    ptr,
)


class TestScalarTypes:
    def test_int_sizes(self):
        assert I8.size() == 1
        assert I16.size() == 2
        assert I32.size() == 4
        assert I64.size() == 8
        assert I1.size() == 1

    def test_float_sizes(self):
        assert F32.size() == 4
        assert F64.size() == 8

    def test_pointer_size(self):
        assert ptr(F64).size() == 8
        assert ptr(ptr(I8)).size() == 8

    def test_void_has_no_size(self):
        with pytest.raises(TypeError):
            VOID.size()

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            FloatType(16)

    def test_scalar_equality(self):
        assert IntType(64) == I64
        assert FloatType(32) == F32
        assert I64 != I32
        assert I64 != F64

    def test_predicates(self):
        assert I64.is_integer and not I64.is_float
        assert F64.is_float and not F64.is_pointer
        assert ptr(I8).is_pointer
        assert VOID.is_void
        assert ArrayType(F64, 3).is_aggregate
        assert VectorType(F64, 4).is_vector


class TestAggregates:
    def test_array_size(self):
        assert ArrayType(F64, 10).size() == 80
        assert ArrayType(I8, 3).size() == 3
        assert ArrayType(ArrayType(F64, 4), 2).size() == 64

    def test_vector(self):
        v = VectorType(F64, 4)
        assert v.size() == 32
        assert v.element == F64
        with pytest.raises(ValueError):
            VectorType(ArrayType(F64, 2), 4)

    def test_struct_layout_natural_alignment(self):
        # { i8, i64 } pads the first field to 8
        st_ = StructType("s", [I8, I64])
        assert st_.field_offset(0) == 0
        assert st_.field_offset(1) == 8
        assert st_.size() == 16

    def test_struct_trailing_padding(self):
        st_ = StructType("s", [I64, I8])
        assert st_.size() == 16  # padded to alignment 8

    def test_struct_field_lookup(self):
        st_ = StructType("pt", [F64, F64], ["x", "y"])
        assert st_.field_index("y") == 1
        with pytest.raises(KeyError):
            st_.field_index("z")

    def test_named_struct_equality_is_nominal(self):
        a = StructType("same", [I64])
        b = StructType("same", [F64, F64])
        assert a == b  # by name, like linked identified structs

    def test_anonymous_struct_equality_is_structural(self):
        a = StructType("", [I64, F64])
        b = StructType("", [I64, F64])
        c = StructType("", [F64])
        assert a == b
        assert a != c


def _ref_size(ty):
    """The layout formulas as they were before layouts were cached:
    every call re-aligns every field, recursively."""
    if isinstance(ty, StructType):
        offset = 0
        for f in ty.fields:
            offset = _align_up(offset, _ref_align(f))
            offset += _ref_size(f)
        return _align_up(offset, _ref_align(ty))
    if isinstance(ty, (ArrayType, VectorType)):
        return _ref_size(ty.element) * ty.count
    return ty.size()


def _ref_align(ty):
    if isinstance(ty, StructType):
        return max([1] + [_ref_align(f) for f in ty.fields])
    if isinstance(ty, ArrayType):
        return _ref_align(ty.element)
    return max(1, min(_ref_size(ty), 8))


def _ref_offset(st_, index):
    offset = 0
    for i, f in enumerate(st_.fields):
        offset = _align_up(offset, _ref_align(f))
        if i == index:
            return offset
        offset += _ref_size(f)
    raise IndexError(index)


def _align_up(offset, align):
    return (offset + align - 1) & ~(align - 1)


def _layout_cases():
    inner = StructType("inner", [I1, F64, I8])
    anon = StructType("", [I8, VectorType(F32, 4), I16])
    mid = StructType("mid", [I32, ArrayType(inner, 3), anon])
    return {
        "empty": StructType("empty", []),
        "empty-anon": StructType("", []),
        "scalars": StructType("sc", [I1, I8, I64, F32, I8]),
        "vector": StructType("v", [I8, VectorType(F64, 2), VectorType(I8, 3)]),
        "pointer": StructType("p", [I8, ptr(F64), I32]),
        "anonymous": anon,
        "struct-in-array-in-struct": mid,
        "deep": StructType("", [I8, ArrayType(mid, 2), I1,
                                StructType("", [])]),
    }


class TestStructLayoutCache:
    @pytest.mark.parametrize("case", sorted(_layout_cases()))
    def test_matches_reference(self, case):
        st_ = _layout_cases()[case]
        for _ in range(2):  # computing, then cached
            assert st_.size() == _ref_size(st_)
            assert st_.align() == _ref_align(st_)
            for i in range(len(st_.fields)):
                assert st_.field_offset(i) == _ref_offset(st_, i)

    def test_arrays_and_vectors_of_structs(self):
        mid = _layout_cases()["struct-in-array-in-struct"]
        for ty in (ArrayType(mid, 5), ArrayType(ArrayType(mid, 2), 3)):
            assert ty.size() == _ref_size(ty)
            assert ty.align() == _ref_align(ty)

    def test_layout_is_computed_once(self):
        st_ = StructType("once", [I8, I64])
        first = st_.layout()
        assert first == (16, 8, (0, 8))
        assert st_.layout() is first

    def test_fields_cannot_be_assigned(self):
        st_ = StructType("s", [I8, I64])
        st_.size()
        with pytest.raises(AttributeError):
            st_.fields = (I64,)
        assert st_.fields == (I8, I64)
        assert st_.size() == 16

    @pytest.mark.parametrize("index", [-1, -2, 2, 3])
    def test_field_offset_out_of_range(self, index):
        st_ = StructType("s", [I8, I64])
        assert st_.field_offset(1) == 8  # layout cached
        with pytest.raises(IndexError):
            st_.field_offset(index)

    def test_empty_struct_has_no_field_offsets(self):
        st_ = StructType("", [])
        assert (st_.size(), st_.align()) == (0, 1)
        with pytest.raises(IndexError):
            st_.field_offset(0)


_scalars = st.sampled_from([I1, I8, I16, I32, I64, F32, F64, ptr(I8),
                            VectorType(F32, 4), VectorType(I8, 3)])
_layout_types = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.builds(ArrayType, inner, st.integers(0, 4)),
        st.builds(lambda fs, named: StructType("n" if named else "", fs),
                  st.lists(inner, max_size=5), st.booleans())),
    max_leaves=12)


@given(st.lists(_layout_types, max_size=6))
def test_struct_layout_matches_reference(fields):
    st_ = StructType("", fields)
    assert st_.size() == _ref_size(st_)
    assert st_.align() == _ref_align(st_)
    for i in range(len(fields)):
        assert st_.field_offset(i) == _ref_offset(st_, i)


class TestPointerInterning:
    def test_scalar_pointers_interned(self):
        assert ptr(F64) is ptr(F64)
        assert ptr(ptr(I64)) is ptr(ptr(I64))

    def test_struct_pointers_interned_by_identity(self):
        """Regression: two same-named structs from different modules must
        get *distinct* pointer types (the omp.ctx collision bug)."""
        a = StructType("omp.ctx.main.0", [ptr(F64)])
        b = StructType("omp.ctx.main.0", [ptr(F64), ptr(I64), I64])
        pa, pb = ptr(a), ptr(b)
        assert pa.pointee is a
        assert pb.pointee is b
        assert pa is not pb

    def test_pointer_to_struct_pointer_not_cross_wired(self):
        a = StructType("S", [I64])
        b = StructType("S", [F64, F64, F64])
        ppa = ptr(ptr(a))
        ppb = ptr(ptr(b))
        assert ppa.pointee.pointee is a
        assert ppb.pointee.pointee is b

    def test_array_of_struct_pointer_not_interned(self):
        a = StructType("T", [I64])
        b = StructType("T", [I64, I64])
        pa = ptr(ArrayType(a, 2))
        pb = ptr(ArrayType(b, 2))
        assert pa.pointee.element is a
        assert pb.pointee.element is b


class TestFunctionType:
    def test_str(self):
        ft = FunctionType(F64, [ptr(F64), I64])
        assert str(ft) == "double (double*, i64)"

    def test_vararg(self):
        ft = FunctionType(VOID, [ptr(I8)], vararg=True)
        assert "..." in str(ft)

    def test_equality(self):
        assert FunctionType(VOID, [I64]) == FunctionType(VOID, [I64])
        assert FunctionType(VOID, [I64]) != FunctionType(VOID, [I32])


@given(st.integers(min_value=1, max_value=128))
def test_int_type_size_covers_bits(bits):
    t = IntType(bits)
    assert t.size() * 8 >= bits
    assert t.align() <= 8


@given(st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=16))
def test_array_size_is_linear(count, esize):
    elem = IntType(esize * 8) if esize <= 8 else ArrayType(I8, esize)
    arr = ArrayType(elem, count)
    assert arr.size() == count * elem.size()
