"""Unit tests for the strategy layer: registry and lifecycle contract."""

import pytest

from repro.oraql import DecisionSequence, TestOutcome
from repro.oraql.strategies import create_strategy, strategy_names
from repro.oraql.strategies.base import StrategyContext


class TestRegistry:
    def test_all_strategies_registered(self):
        assert strategy_names() == ["chunked", "frequency"]

    def test_paper_strategies_first(self):
        assert strategy_names()[:2] == ["chunked", "frequency"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            create_strategy("nope")
        with pytest.raises(ValueError, match="chunked"):
            create_strategy("nope")

    def test_duplicate_name_rejected(self):
        from repro.oraql.strategies import register
        from repro.oraql.strategies.chunked import ChunkedStrategy

        class Imposter(ChunkedStrategy):
            pass

        with pytest.raises(ValueError, match="duplicate"):
            register(Imposter)
        register(ChunkedStrategy)  # same class re-registers fine


def _failing_first(n=8):
    return StrategyContext(first=TestOutcome(False, n, "exe:first"))


class TestLifecycle:
    """The propose/observe/done contract every driver loop relies on."""

    @pytest.mark.parametrize("name", strategy_names())
    def test_propose_requires_start(self, name):
        strat = create_strategy(name)
        with pytest.raises(RuntimeError):
            strat.propose()

    @pytest.mark.parametrize("name", strategy_names())
    def test_observe_rejects_foreign_probe(self, name):
        from repro.oraql.strategies.base import Probe
        strat = create_strategy(name)
        strat.start(_failing_first())
        assert not strat.done()
        strat.propose()
        with pytest.raises(RuntimeError):
            strat.observe(Probe(DecisionSequence([1])),
                          TestOutcome(True, 8, "exe:x"))

    @pytest.mark.parametrize("name", strategy_names())
    def test_result_only_after_done(self, name):
        strat = create_strategy(name)
        strat.start(_failing_first())
        with pytest.raises(RuntimeError):
            strat.result()

    @pytest.mark.parametrize("name", strategy_names())
    def test_best_known_is_a_set(self, name):
        strat = create_strategy(name)
        strat.start(_failing_first())
        assert strat.best_known() == set()

    @pytest.mark.parametrize("name", strategy_names())
    def test_propose_is_stable_until_observed(self, name):
        strat = create_strategy(name)
        strat.start(_failing_first())
        assert strat.propose() is strat.propose()

    @pytest.mark.parametrize("name", strategy_names())
    def test_observe_twice_rejected(self, name):
        strat = create_strategy(name)
        strat.start(_failing_first())
        probe = strat.propose()
        strat.observe(probe, TestOutcome(False, 8, "exe:x"))
        with pytest.raises(RuntimeError):
            strat.observe(probe, TestOutcome(False, 8, "exe:x"))

    @pytest.mark.parametrize("name", strategy_names())
    def test_propose_after_done_rejected(self, name):
        strat = _drive_to_done(name, 8, {2, 5})
        with pytest.raises(RuntimeError, match="after done"):
            strat.propose()

    @pytest.mark.parametrize("name", strategy_names())
    def test_best_known_is_the_result_once_done(self, name):
        strat = _drive_to_done(name, 16, {0, 9, 15})
        assert strat.result() == strat.best_known() == {0, 9, 15}

    @pytest.mark.parametrize("name", strategy_names())
    def test_answers_are_copies(self, name):
        strat = _drive_to_done(name, 8, {3})
        for answer in (strat.result, strat.best_known, strat.pinned,
                       strat.candidates):
            answer().add(7)
            assert 7 not in answer(), answer.__name__

    @pytest.mark.parametrize("name", strategy_names())
    def test_bookkeeping_starts_clean(self, name):
        strat = create_strategy(name)
        strat.start(_failing_first())
        assert strat.epoch == 0
        assert strat.deduced == 0
        assert strat.pinned() == set()

    @pytest.mark.parametrize("name", strategy_names())
    def test_fresh_instances_propose_the_same_first_probe(self, name):
        first = []
        for _ in range(2):
            strat = create_strategy(name)
            strat.start(_failing_first(12))
            first.append(strat.propose().sequence)
        assert first[0] == first[1]


def _drive_to_done(name, n, dangerous):
    """A strategy run to completion against Fig. 2's synthetic oracle."""
    from repro.experiments import SyntheticOracle

    oracle = SyntheticOracle(n, dangerous)
    strat = create_strategy(name)
    strat.start(_failing_first(n))
    while not strat.done():
        probe = strat.propose()
        strat.observe(probe, TestOutcome(oracle.test(probe.sequence), n,
                                         f"exe:{probe.sequence.bits}"))
    return strat
