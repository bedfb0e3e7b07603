"""Tests for the global matching attack (extension of Section II-B)."""

import numpy as np
import pytest

from repro.attack.config import IMP_9
from repro.attack.framework import evaluate_attack, train_attack
from repro.attack.matching import (
    _greedy_assignment,
    connected_component_sizes,
    distance_weighted_matching_attack,
    global_matching_attack,
)
from repro.attack.proximity import pa_success_rate
from repro.attack.result import AttackResult
from repro.layout.geometry import Point
from repro.splitmfg.split import SplitView, VPin


def _view(n):
    vpins = []
    for vid in range(n):
        vpins.append(
            VPin(
                id=vid,
                net=f"n{vid // 2}",
                location=Point(float(vid), 0.0),
                fragment_wirelength=0.0,
                pins=(),
                pin_location=Point(float(vid), 0.0),
                in_area=1.0,
                out_area=0.0,
                matches=frozenset({vid ^ 1}),
            )
        )
    return SplitView(
        design_name="t", split_layer=8, die_width=10, die_height=10, vpins=vpins
    )


class TestGreedyAssignment:
    def test_one_to_one(self):
        """The matching resolves the conflict PA cannot: v1 is claimed by
        the strongest pair only."""
        view = _view(4)
        result = AttackResult(
            view=view,
            pair_i=np.array([0, 2, 2, 1]),
            pair_j=np.array([1, 1, 3, 3]),
            prob=np.array([0.9, 0.8, 0.7, 0.6]),
        )
        outcome = global_matching_attack(result, min_probability=0.5)
        # Greedy: (0,1) at .9, then (2,1)/(1,3) blocked, (2,3) at .7.
        assert outcome.n_assigned == 4
        assert outcome.n_correct == 4
        assert outcome.success_rate == 1.0

    def test_threshold_filters(self):
        view = _view(2)
        result = AttackResult(
            view=view,
            pair_i=np.array([0]),
            pair_j=np.array([1]),
            prob=np.array([0.4]),
        )
        assert global_matching_attack(result, 0.5).n_assigned == 0
        assert global_matching_attack(result, 0.3).n_correct == 2

    def test_empty_result(self):
        view = _view(2)
        result = AttackResult(
            view=view,
            pair_i=np.zeros(0, dtype=int),
            pair_j=np.zeros(0, dtype=int),
            prob=np.zeros(0),
        )
        outcome = global_matching_attack(result)
        assert outcome.success_rate == 0.0


    def test_ties_do_not_depend_on_array_order(self):
        """All-equal weights: the matching is a function of the pair set,
        identical for every permutation of the input arrays."""
        rng = np.random.default_rng(0)
        i, j = np.triu_indices(12, k=1)
        weight = np.full(len(i), 0.5)
        reference = _greedy_assignment(i, j, weight)
        for _ in range(5):
            order = rng.permutation(len(i))
            assert _greedy_assignment(i[order], j[order], weight[order]) == reference


class TestOnBenchmarks:
    @pytest.fixture(scope="class")
    def result(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        return evaluate_attack(trained, views8[0])

    def test_matching_beats_or_ties_threshold_pa(self, result):
        """Global consistency should not hurt relative to independent
        per-v-pin nearest-candidate choices at the same threshold."""
        pa = pa_success_rate(result, threshold=0.5)
        matching = global_matching_attack(result, min_probability=0.5)
        assert matching.success_rate >= pa - 0.1

    def test_distance_weighted_variant(self, result):
        outcome = distance_weighted_matching_attack(result)
        assert 0 <= outcome.success_rate <= 1
        assert outcome.config_name.endswith("+match")

    def test_component_sizes(self, result):
        sizes = connected_component_sizes(result, threshold=0.5)
        assert sizes.sum() == result.n_vpins
        # Lowering the threshold entangles the graph into bigger blobs.
        lower = connected_component_sizes(result, threshold=0.1)
        assert lower.max() >= sizes.max()
