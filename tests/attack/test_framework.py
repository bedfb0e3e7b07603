"""Tests for the attack training/evaluation driver."""

import numpy as np
import pytest

from repro.attack.config import IMP_9, IMP_9Y, ML_9, AttackConfig
from repro.attack import framework
from repro.attack.framework import (
    _run_loo_fold,
    evaluate_attack,
    loo_folds,
    make_classifier,
    run_loo,
    train_attack,
)
from repro.splitmfg.pair_features import legal_pair_mask
from repro.splitmfg.sampling import neighborhood_fraction


class TestMakeClassifier:
    def test_reptree_default(self):
        model = make_classifier(IMP_9, seed=0)
        assert model.n_estimators == 10

    def test_randomtree_variant(self):
        from dataclasses import replace

        config = replace(ML_9, base_classifier="randomtree", n_estimators=25)
        model = make_classifier(config, seed=0)
        assert model.n_estimators == 25


class TestTrainAttack:
    def test_ml_has_no_neighborhood(self, views8):
        trained = train_attack(ML_9, views8, seed=0)
        assert trained.neighborhood is None
        assert trained.limit_axis is None
        assert trained.n_training_samples > 0

    def test_imp_has_neighborhood(self, views8):
        trained = train_attack(IMP_9, views8, seed=0)
        assert trained.neighborhood is not None
        assert 0 < trained.neighborhood < 1

    def test_y_config_resolves_axis(self, views8):
        trained = train_attack(IMP_9Y, views8, seed=0)
        assert trained.limit_axis == "y"

    def test_y_config_rejected_below_top_layer(self, views6):
        with pytest.raises(ValueError):
            train_attack(IMP_9Y, views6, seed=0)

    def test_needs_views(self):
        with pytest.raises(ValueError):
            train_attack(ML_9, [], seed=0)


class TestEvaluateAttack:
    def test_ml_evaluates_all_legal_pairs(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        result = evaluate_attack(trained, view)
        n = len(view)
        i, j = np.triu_indices(n, k=1)
        n_legal = int(legal_pair_mask(view, i, j).sum())
        assert result.n_pairs_evaluated == n_legal
        assert len(result.prob) == n_legal
        assert result.saturation_accuracy() == 1.0

    def test_imp_evaluates_fewer_pairs(self, views8):
        ml = train_attack(ML_9, views8[1:], seed=0)
        imp = train_attack(IMP_9, views8[1:], seed=0)
        view = views8[0]
        assert (
            evaluate_attack(imp, view).n_pairs_evaluated
            < evaluate_attack(ml, view).n_pairs_evaluated
        )

    def test_y_limit_prunes_pairs_and_keeps_matches(self, views8):
        plain = train_attack(IMP_9, views8[1:], seed=0)
        limited = train_attack(IMP_9Y, views8[1:], seed=0)
        view = views8[0]
        r_plain = evaluate_attack(plain, view)
        r_limited = evaluate_attack(limited, view)
        assert r_limited.n_pairs_evaluated < r_plain.n_pairs_evaluated
        # At layer 8 all matches are y-aligned, so the filter loses none.
        assert r_limited.saturation_accuracy() == pytest.approx(
            r_plain.saturation_accuracy()
        )
        arr = view.arrays()
        dy = np.abs(arr["vy"][r_limited.pair_i] - arr["vy"][r_limited.pair_j])
        assert (dy <= 1e-6).all()

    def test_probabilities_bounded(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        assert (result.prob >= 0).all() and (result.prob <= 1).all()

    def test_attack_quality_sanity(self, views8):
        """The attack must dominate random guessing by a wide margin."""
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        accuracy = result.accuracy_at_threshold(0.5)
        loc_fraction = result.loc_fraction_at_threshold(0.5)
        assert accuracy > 5 * loc_fraction


class TestLoo:
    def test_folds_partition(self, views8):
        folds = list(loo_folds(views8))
        assert len(folds) == len(views8)
        for test_view, training in folds:
            assert test_view not in training
            assert len(training) == len(views8) - 1

    def test_run_loo_returns_one_result_per_design(self, views8):
        results = run_loo(IMP_9, views8, seed=0)
        assert [r.view.design_name for r in results] == [
            v.design_name for v in views8
        ]
        assert all(r.config_name == "Imp-9" for r in results)

    def test_run_loo_needs_two_views(self, views8):
        with pytest.raises(ValueError):
            run_loo(IMP_9, views8[:1], seed=0)


    def test_run_loo_rejects_repeated_designs(self, views8):
        with pytest.raises(ValueError, match="distinct designs"):
            run_loo(IMP_9, [*views8[:2], views8[0]], seed=0)

    def test_fold_asserts_held_out_design_is_not_trained_on(self, views8):
        views = [views8[0], views8[1], views8[0]]
        with pytest.raises(AssertionError, match="also a training design"):
            _run_loo_fold((IMP_9, views, 0, 0, 400_000, None))

    def test_fold_neighborhood_from_training_designs_only(
        self, views8, monkeypatch
    ):
        """Each fold's Imp radius fraction is the percentile over that
        fold's training designs, never over the held-out one."""
        seen = []
        real = framework.evaluate_attack

        def spy(trained, view, *args, **kwargs):
            seen.append((view.design_name, trained.neighborhood))
            return real(trained, view, *args, **kwargs)

        monkeypatch.setattr(framework, "evaluate_attack", spy)
        views = views8[:3]
        run_loo(IMP_9, views, seed=0)
        assert [name for name, _ in seen] == [v.design_name for v in views]
        for (name, fraction), (test_view, training) in zip(seen, loo_folds(views)):
            assert test_view.design_name == name
            assert name not in {v.design_name for v in training}
            assert fraction == neighborhood_fraction(
                training, IMP_9.neighborhood_percentile
            )


class TestObservability:
    """The driver emits span trees and pipeline counters."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        from repro.obs import get_registry, reset_tracing

        reset_tracing()
        get_registry().reset()
        yield
        reset_tracing()
        get_registry().reset()

    def test_run_loo_span_tree(self, views8):
        from repro.obs import drain_spans, get_registry

        run_loo(IMP_9, views8[:3], seed=0)
        (loo,) = drain_spans()
        assert loo["name"] == "loo"
        assert loo["attrs"]["n_folds"] == 3
        folds = loo["children"]
        assert [f["name"] for f in folds] == ["fold"] * 3
        for fold in folds:
            child_names = [c["name"] for c in fold["children"]]
            assert "train" in child_names and "evaluate" in child_names
        counters = get_registry().snapshot()["counters"]
        assert counters["folds_completed"] == 3
        assert counters["candidates_scored"] > 0

    @pytest.mark.parametrize("evaluator", ["cold", "warm", "topk", "scaled"])
    def test_scoring_counted_once(self, views8, tmp_path, evaluator):
        """Each evaluator counts every scored pair exactly once."""
        from repro.attack.scale import evaluate_attack_scaled
        from repro.attack.topk import evaluate_attack_topk
        from repro.obs import get_registry
        from repro.runtime import FeatureCache

        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        cache = FeatureCache(tmp_path)
        if evaluator == "warm":
            evaluate_attack(trained, view, cache=cache)
        get_registry().reset()
        if evaluator in ("cold", "warm"):
            result = evaluate_attack(trained, view, cache=cache)
        elif evaluator == "topk":
            result = evaluate_attack_topk(trained, view, k=4)
        else:
            result = evaluate_attack_scaled(
                trained, view, k=4, jobs=2, n_shards=3
            )
        counters = get_registry().snapshot()["counters"]
        assert result.n_pairs_evaluated > 0
        assert counters["candidates_scored"] == result.n_pairs_evaluated
        featurized = 0 if evaluator == "warm" else result.n_pairs_evaluated
        assert counters.get("pairs_featurized", 0) == featurized

    def test_parallel_folds_counters_match_serial(self, views8):
        from repro.obs import drain_spans, get_registry, reset_tracing

        run_loo(IMP_9, views8[:3], seed=0, jobs=1)
        serial = get_registry().snapshot()["counters"]
        get_registry().reset()
        reset_tracing()
        run_loo(IMP_9, views8[:3], seed=0, jobs=2)
        pooled = get_registry().snapshot()["counters"]
        for name in ("folds_completed", "candidates_scored"):
            assert serial[name] == pooled[name]
        (loo,) = drain_spans()
        assert [f["name"] for f in loo["children"]] == ["fold"] * 3
