"""Property tests for the strategy contract (base.py docstring).

Every registered strategy is driven against Fig. 2's monotone
``SyntheticOracle`` — a hidden dangerous set D where a probe passes iff
no index of D is answered optimistically — and held to the contract:

* **convergence** — the returned pessimistic set is exactly D (the
  chunked reference answer on a monotone oracle);
* **determinism** — the same verdicts replay the same probe sequence
  bit for bit, which is what makes journal ``--resume`` work unchanged
  for every strategy (the real kill-and-resume check lives in
  tests/test_journal.py);
* **progress** — pinned grows and candidates shrinks monotonically
  within one epoch;
* **no repeats** — no two probes of a session carry the same bits
  (frequency is exempt: a residue-class split can re-propose a block's
  bits verbatim, which the driver serves from the verdict cache for
  free — asserted as such).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import SyntheticOracle
from repro.oraql import TestOutcome
from repro.oraql.strategies import create_strategy, strategy_names
from repro.oraql.strategies.base import StrategyContext

#: strategies whose probe streams never repeat a bit pattern
NO_REPEAT = [n for n in strategy_names() if n != "frequency"]


def drive(name, n, dangerous, trace=None):
    """Run one strategy against the synthetic oracle; returns
    (result set, probe bit-tuples in order)."""
    strat = create_strategy(name)
    # the driver only starts a strategy after the all-optimistic
    # attempt failed, so the oracle needs a non-empty dangerous set
    assert dangerous
    oracle = SyntheticOracle(n, dangerous)
    strat.start(StrategyContext(first=TestOutcome(False, n, "exe:first")))
    probes = []
    while not strat.done():
        probe = strat.propose()
        bits = probe.sequence.bits
        probes.append(tuple(bits))
        if trace is not None:
            trace.append((strat.epoch, strat.pinned(),
                          strat.candidates()))
        strat.observe(probe, TestOutcome(oracle.test(probe.sequence), n,
                                         f"exe:{bits}"))
    return strat.result(), probes


def danger_sets(max_n=40):
    """(n, dangerous) with dangerous a non-empty subset of range(n)."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.sets(st.integers(min_value=0, max_value=n - 1),
                          min_size=1).map(lambda d: (n, d)))


class TestConvergence:
    @settings(max_examples=40, deadline=None)
    @given(case=danger_sets())
    def test_every_strategy_finds_the_reference_set(self, case):
        n, dangerous = case
        for name in strategy_names():
            found, _probes = drive(name, n, dangerous)
            assert found == dangerous, name


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(case=danger_sets())
    def test_same_verdicts_same_probe_stream(self, case):
        n, dangerous = case
        for name in strategy_names():
            _, probes_a = drive(name, n, dangerous)
            _, probes_b = drive(name, n, dangerous)
            assert probes_a == probes_b, name


class TestProgress:
    @settings(max_examples=25, deadline=None)
    @given(case=danger_sets())
    def test_pinned_grows_candidates_shrink_within_epoch(self, case):
        n, dangerous = case
        for name in strategy_names():
            trace = []
            drive(name, n, dangerous, trace=trace)
            for (e0, p0, c0), (e1, p1, c1) in zip(trace, trace[1:]):
                if e0 != e1:
                    continue  # fallback/restart resets the invariants
                assert p0 <= p1, (name, "pinned must grow")
                # candidates shrink; the only growth is the first
                # failing outcome populating the empty initial universe
                assert c1 <= c0 or not c0, (name, "candidates must shrink")


class TestNoRepeats:
    @settings(max_examples=40, deadline=None)
    @given(case=danger_sets())
    def test_no_strategy_repeats_a_probe(self, case):
        n, dangerous = case
        for name in NO_REPEAT:
            _, probes = drive(name, n, dangerous)
            assert len(probes) == len(set(probes)), name

    @settings(max_examples=40, deadline=None)
    @given(case=danger_sets())
    def test_frequency_repeats_are_verbatim_cache_hits(self, case):
        """Frequency may re-propose a bit pattern (a class split whose
        residue indices all land in one child re-tests the parent's
        block) — every repeat must be bit-verbatim, so the driver's
        executable-hash verdict cache serves it without a compile."""
        n, dangerous = case
        _, probes = drive("frequency", n, dangerous)
        seen = {}
        for i, p in enumerate(probes):
            if p in seen:
                assert probes[seen[p]] == p  # verbatim by construction
            else:
                seen[p] = i


class TestEdgeCases:
    def test_all_dangerous(self):
        for name in strategy_names():
            found, _ = drive(name, 6, set(range(6)))
            assert found == set(range(6)), name

    def test_single_query_universe(self):
        for name in strategy_names():
            found, _ = drive(name, 1, {0})
            assert found == {0}, name

    def test_last_index_only(self):
        for name in strategy_names():
            found, _ = drive(name, 32, {31})
            assert found == {31}, name
