"""Unit tests for the strategy layer: registry, lifecycle contract,
and the provenance-prior model."""

import pytest

from repro.oraql import DecisionSequence, TestOutcome
from repro.oraql.strategies import (
    PriorModel,
    create_strategy,
    strategy_names,
)
from repro.oraql.strategies.base import StrategyContext
from repro.oraql.strategies.features import (
    FP_BUCKETS,
    PASS_VOCAB,
    SHAPE_VOCAB,
    feature_indices,
    vector_width,
)
from repro.oraql.strategies.prior import PriorStrategy


class TestRegistry:
    def test_all_strategies_registered(self):
        assert strategy_names() == [
            "chunked", "frequency", "provenance-prior"]

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


class _Rec:
    """A minimal QueryRecord stand-in for featurization."""

    class _Loc:
        def __init__(self, ptr):
            self.ptr = ptr

    def __init__(self, index=0, cached=False,
                 issuing_pass="Early CSE", a=None, b=None):
        self.index = index
        self.cached = cached
        self.issuing_pass = issuing_pass
        self.a = self._Loc(a)
        self.b = self._Loc(b)


class TestFeatures:
    def test_vector_width_accounts_for_all_slots(self):
        assert vector_width() == \
            1 + len(PASS_VOCAB) + 1 + len(SHAPE_VOCAB) + FP_BUCKETS

    def test_known_pass_one_hot(self):
        idx = feature_indices(_Rec(issuing_pass="Early CSE"))
        assert idx[0] == 0  # bias
        assert idx[1] == 1 + PASS_VOCAB.index("Early CSE")

    def test_unknown_pass_lands_in_oov_slot(self):
        idx = feature_indices(_Rec(issuing_pass="Totally New Pass"))
        assert idx[1] == 1 + len(PASS_VOCAB)

    def test_indices_in_range_and_unique(self):
        idx = feature_indices(_Rec())
        assert len(idx) == 4
        assert len(set(idx)) == 4
        assert all(0 <= i < vector_width() for i in idx)

    def test_erased_instruction_fingerprints_to_unknown_bucket(self):
        # operand-less pointers make pointer_fingerprint blow up; the
        # featurizer must absorb that into bucket 0
        idx = feature_indices(_Rec(a=None, b=None))
        assert idx[-1] == vector_width() - FP_BUCKETS  # bucket 0 slot


class TestPriorModel:
    def _samples(self):
        # dangerous iff the pass feature is "Early CSE"
        hot = feature_indices(_Rec(issuing_pass="Early CSE"))
        cold = feature_indices(_Rec(issuing_pass="Memory SSA"))
        return [(hot, True)] * 5 + [(cold, False)] * 20

    def test_fit_is_deterministic(self):
        a = PriorModel.fit(self._samples(), epochs=50)
        b = PriorModel.fit(self._samples(), epochs=50)
        assert a.weights == b.weights

    def test_fit_separates_classes(self):
        model = PriorModel.fit(self._samples(), epochs=200)
        assert model.auc(self._samples()) > 0.9
        assert model.score(_Rec(issuing_pass="Early CSE")) > \
            model.score(_Rec(issuing_pass="Memory SSA"))

    def test_save_load_roundtrip(self, tmp_path):
        model = PriorModel.fit(self._samples(), epochs=10)
        path = str(tmp_path / "m.json")
        model.save(path)
        back = PriorModel.load(path)
        assert back.weights == model.weights
        assert back.buckets == model.buckets

    def test_load_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            fh.write('{"version": 99, "weights": []}')
        with pytest.raises(ValueError, match="format version"):
            PriorModel.load(path)

    def test_load_rejects_wrong_width(self, tmp_path):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fh:
            fh.write('{"version": 1, "weights": [0.0, 1.0]}')
        with pytest.raises(ValueError, match="weights"):
            PriorModel.load(path)

    def test_load_default_never_raises(self, monkeypatch):
        import repro.oraql.strategies.prior as prior_mod
        monkeypatch.setattr(prior_mod, "DEFAULT_MODEL_PATH",
                            "/nonexistent/nope.json")
        model = PriorModel.load_default()
        assert model.weights == [0.0] * vector_width()

    def test_checked_in_artifact_loads(self):
        # the repo ships a fitted model; it must parse and be non-zero
        model = PriorModel.load_default()
        assert any(w != 0.0 for w in model.weights)
        assert model.meta.get("samples", 0) > 0


class TestPriorPick:
    def test_confident_score_overrides_midpoint(self):
        strat = PriorStrategy(model=PriorModel(
            weights=[0.0] * vector_width()))
        # absolute index 5 is hot -> probe at boundary k=6
        assert strat._pick(0, 16, 0, {5: 0.95}) == 6

    def test_flat_scores_fall_back_to_midpoint(self):
        strat = PriorStrategy(model=PriorModel(
            weights=[0.0] * vector_width()))
        # a zero model scores everything sigmoid(0)=0.5 < CONFIDENCE
        assert strat._pick(0, 16, 0, {i: 0.5 for i in range(16)}) == 8

    def test_pick_stays_inside_open_interval(self):
        strat = PriorStrategy(model=PriorModel(
            weights=[0.0] * vector_width()))
        assert strat._pick(0, 2, 0, {1: 0.99}) == 1
        assert strat._pick(4, 6, 0, {4: 0.99}) == 5
