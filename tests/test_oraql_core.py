"""Tests for the ORAQL core: decision sequences, the pass (cache, dumps,
scoping), and the verification script."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    AliasResult,
    LocationSize,
    MemoryLocation,
    build_aa_chain,
)
from repro.ir import F64, FunctionType, IRBuilder, Module, VOID, ptr
from repro.oraql import (
    DecisionSequence,
    DumpFlags,
    OraqlAAPass,
    VerificationScript,
    sequence_from_pessimistic_set,
)
from repro.oraql.verify import RunResult


class TestDecisionSequence:
    def test_text_roundtrip(self):
        s = DecisionSequence([1, 0, 1, 1, 0])
        assert s.to_text() == "1 0 1 1 0"
        assert DecisionSequence.from_text(s.to_text()) == s

    def test_bad_token(self):
        with pytest.raises(ValueError):
            DecisionSequence.from_text("1 0 2")

    def test_exhaustion_is_optimistic(self):
        s = DecisionSequence([0])
        assert s.next() is False
        assert s.next() is True
        assert s.next() is True
        assert s.consumed == 3

    def test_empty_sequence_all_optimistic(self):
        s = DecisionSequence()
        assert all(s.next() for _ in range(10))

    def test_from_pessimistic_set(self):
        s = sequence_from_pessimistic_set({1, 3})
        assert s.bits == [1, 0, 1, 0]
        assert sequence_from_pessimistic_set(set()).bits == []
        assert sequence_from_pessimistic_set({0}, length=3).bits == [0, 1, 1]

    def test_bits_are_normalised(self):
        assert DecisionSequence([2, 0, True, False]).bits == [1, 0, 1, 0]

    def test_equality_and_hash_follow_the_bits(self):
        a, b = DecisionSequence([1, 0]), DecisionSequence((True, False))
        assert a == b and hash(a) == hash(b)
        assert a != DecisionSequence([1, 0, 1])
        assert a != [1, 0]
        b.next()  # consumption is pass-side state, not identity
        assert a == b

    def test_reset_replays_from_the_start(self):
        s = DecisionSequence([0, 1])
        first = [s.next() for _ in range(3)]
        s.reset()
        assert [s.next() for _ in range(3)] == first == [False, True, True]

    def test_text_accepts_any_whitespace(self):
        assert DecisionSequence.from_text(" 1\t0\n 1 ").bits == [1, 0, 1]
        assert DecisionSequence.from_text("").bits == []

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_roundtrip_property(self, bits):
        s = DecisionSequence(bits)
        assert DecisionSequence.from_text(s.to_text()).bits == s.bits


@pytest.fixture
def fn_locs(module):
    fn = module.add_function(
        FunctionType(VOID, [ptr(F64), ptr(F64), ptr(F64)]), "f",
        ["a", "b", "c"])
    IRBuilder(fn.add_block("entry"))
    P8 = LocationSize.precise_(8)
    la = MemoryLocation(fn.args[0], P8)
    lb = MemoryLocation(fn.args[1], P8)
    lc = MemoryLocation(fn.args[2], P8)
    return fn, la, lb, lc


class TestOraqlPass:
    def test_sequence_consumed_per_unique_query(self, fn_locs):
        fn, la, lb, lc = fn_locs
        p = OraqlAAPass(DecisionSequence([1, 0]))
        assert p.answer(la, lb, fn, "GVN") is AliasResult.NO
        assert p.answer(la, lc, fn, "GVN") is AliasResult.MAY
        assert p.opt_unique == 1 and p.pess_unique == 1

    def test_cache_ignores_location_size(self, fn_locs):
        """Paper §IV-A: queries are identical if they have the same
        pointer pair, regardless of the location descriptions."""
        fn, la, lb, _ = fn_locs
        p = OraqlAAPass(DecisionSequence([1]))
        assert p.answer(la, lb, fn, "GVN") is AliasResult.NO
        big = la.with_size(LocationSize.before_or_after_pointer())
        assert p.answer(big, lb, fn, "LICM") is AliasResult.NO
        assert p.unique_queries == 1
        assert p.cached_queries == 1

    def test_cache_is_unordered(self, fn_locs):
        fn, la, lb, _ = fn_locs
        p = OraqlAAPass(DecisionSequence([0]))
        assert p.answer(la, lb, fn, "GVN") is AliasResult.MAY
        assert p.answer(lb, la, fn, "DSE") is AliasResult.MAY
        assert p.pess_unique == 1 and p.pess_cached == 1

    def test_consistency_across_passes(self, fn_locs):
        """The same pair must get the same answer everywhere — the
        self-consistency the cache exists to provide."""
        fn, la, lb, _ = fn_locs
        p = OraqlAAPass(DecisionSequence([1]))
        answers = {p.answer(la, lb, fn, who)
                   for who in ("GVN", "LICM", "DSE", "Memory SSA")}
        assert answers == {AliasResult.NO}

    def test_unique_count_reported(self, fn_locs):
        fn, la, lb, lc = fn_locs
        p = OraqlAAPass(DecisionSequence())
        p.answer(la, lb, fn, "x")
        p.answer(la, lc, fn, "x")
        p.answer(lb, lc, fn, "x")
        p.answer(la, lb, fn, "x")
        stats = p.statistics()
        assert stats["unique queries"] == 3
        assert stats["cached queries"] == 1
        assert p.sequence.consumed == 3

    def test_target_filter(self, module):
        host = module.add_function(FunctionType(VOID, [ptr(F64), ptr(F64)]),
                                   "h", target="host")
        dev = module.add_function(FunctionType(VOID, [ptr(F64), ptr(F64)]),
                                  "d", target="nvptx")
        P8 = LocationSize.precise_(8)
        p = OraqlAAPass(DecisionSequence(), target_filter="nvptx")
        lh = (MemoryLocation(host.args[0], P8),
              MemoryLocation(host.args[1], P8))
        ld = (MemoryLocation(dev.args[0], P8),
              MemoryLocation(dev.args[1], P8))
        assert p.answer(*lh, host, "x") is AliasResult.MAY  # filtered out
        assert p.answer(*ld, dev, "x") is AliasResult.NO
        assert p.unique_queries == 1

    def test_probe_function_scope_covers_outlined(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64), ptr(F64)]),
                                 "kernel.omp_outlined..0")
        P8 = LocationSize.precise_(8)
        p = OraqlAAPass(DecisionSequence(), probe_functions={"kernel"})
        l = (MemoryLocation(fn.args[0], P8), MemoryLocation(fn.args[1], P8))
        assert p.answer(*l, fn, "x") is AliasResult.NO

    def test_probe_file_scope(self, module):
        fn = module.add_function(FunctionType(VOID, [ptr(F64), ptr(F64)]),
                                 "f")
        fn.source_file = "other.c"
        P8 = LocationSize.precise_(8)
        p = OraqlAAPass(DecisionSequence(), probe_files={"sna.cpp"})
        l = (MemoryLocation(fn.args[0], P8), MemoryLocation(fn.args[1], P8))
        assert p.answer(*l, fn, "x") is AliasResult.MAY

    def test_dump_requires_one_of_each_axis(self):
        assert not DumpFlags(first=True).any()
        assert not DumpFlags(optimistic=True).any()
        assert DumpFlags(first=True, pessimistic=True).any()

    def test_pessimistic_records_render_like_fig3(self, fn_locs):
        fn, la, lb, _ = fn_locs
        p = OraqlAAPass(DecisionSequence([0]))
        p.answer(la, lb, fn, "Global Value Numbering")
        recs = p.pessimistic_records()
        assert len(recs) == 1
        text = "\n".join(recs[0].render())
        assert "[ORAQL] Pessimistic query [Cached 0]" in text
        assert "[ORAQL] Scope: f" in text
        assert "LocationSize" in text


class TestVerificationScript:
    def test_exact_match(self):
        v = VerificationScript(["hello\n"])
        assert v.check(RunResult("hello\n", "done"))
        assert not v.check(RunResult("hellO\n", "done"))

    def test_filters_mask_noise(self):
        v = VerificationScript(
            ["result 5\ntime <T>\n"],
            filters=[(r"time .*", "time <T>")])
        assert v.check(RunResult("result 5\ntime 0.123\n", "done"))
        assert not v.check(RunResult("result 6\ntime 0.123\n", "done"))

    def test_multiple_references(self):
        v = VerificationScript(["a\n", "b\n"])
        assert v.check(RunResult("a\n", "done"))
        assert v.check(RunResult("b\n", "done"))
        assert not v.check(RunResult("c\n", "done"))

    def test_failed_runs_never_verify(self):
        v = VerificationScript(["x\n"])
        assert not v.check(RunResult("x\n", "trapped", "boom"))
        assert not v.check(RunResult("x\n", "blocked"))

    def test_needs_reference(self):
        with pytest.raises(ValueError):
            VerificationScript([])

    def test_explain(self):
        v = VerificationScript(["abcdef\n"])
        msg = v.explain(RunResult("abcxef\n", "done"))
        assert "mismatch" in msg
        assert "ok" == v.explain(RunResult("abcdef\n", "done"))


# -- property-based tests (hypothesis) ----------------------------------------

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=200)


class TestDecisionSequenceProperties:
    """Round-trip and bisection-split invariants for DecisionSequence."""

    @given(bit_lists)
    def test_text_roundtrip(self, bits):
        s = DecisionSequence(bits)
        assert DecisionSequence.from_text(s.to_text()) == s

    @given(bit_lists, st.integers(min_value=0, max_value=20))
    def test_next_replays_bits_then_goes_optimistic(self, bits, extra):
        s = DecisionSequence(bits)
        answers = [s.next() for _ in range(len(bits) + extra)]
        assert answers[:len(bits)] == [bool(b) for b in bits]
        assert all(answers[len(bits):])  # past the end: no-alias
        assert s.consumed == len(bits) + extra
        s.reset()
        assert s.consumed == 0

    @given(st.sets(st.integers(min_value=0, max_value=100)))
    def test_pessimistic_set_roundtrip(self, pess):
        s = sequence_from_pessimistic_set(pess)
        assert len(s) == (max(pess) + 1 if pess else 0)
        recovered = {i for i, b in enumerate(s.bits) if b == 0}
        assert recovered == pess

    @given(st.sets(st.integers(min_value=0, max_value=50)),
           st.integers(min_value=0, max_value=80))
    def test_pessimistic_set_with_explicit_length(self, pess, length):
        s = sequence_from_pessimistic_set(pess, length=length)
        assert len(s) == length
        assert {i for i, b in enumerate(s.bits) if b == 0} \
            == {i for i in pess if i < length}

    @given(bit_lists, st.data())
    def test_bisection_split_invariants(self, decided, data):
        # mirror of chunked_search's candidate builder (strategies/chunked.py):
        # g(k) keeps the decided prefix, answers the next k queries
        # optimistically, and pads the rest (+ TAIL_PAD) pessimistically
        from repro.oraql.strategies.base import TAIL_PAD as pad

        span = data.draw(st.integers(min_value=1, max_value=30))

        def g_bits(k):
            return decided + [1] * k + [0] * (span - k + pad)

        k1 = data.draw(st.integers(min_value=0, max_value=span))
        k2 = data.draw(st.integers(min_value=k1, max_value=span))
        s1, s2 = DecisionSequence(g_bits(k1)), DecisionSequence(g_bits(k2))
        # every candidate covers the whole span plus the safety tail
        assert len(s1) == len(decided) + span + pad
        # prefix stability: raising k only flips 0s to 1s after the
        # shared prefix, never touches decided answers
        assert s1.bits[:len(decided)] == s2.bits[:len(decided)] == \
            [1 if b else 0 for b in decided]
        assert s1.bits[:len(decided) + k1] == s2.bits[:len(decided) + k1]
        # monotone: the k2 candidate is at least as optimistic
        assert sum(s1.bits) <= sum(s2.bits)
        # k = 0 answers the whole span pessimistically
        s0 = DecisionSequence(g_bits(0))
        assert all(b == 0 for b in s0.bits[len(decided):])
