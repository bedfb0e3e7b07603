"""Bit-identity tests for the presorted C fit kernel.

The contract under test (see ``repro/ml/fit_engine.py``): the compiled
kernel grows node-for-node identical trees to the reference
per-node-argsort grower -- the path taken with the kernel disabled --
on every input including ties, duplicated columns, constant features,
``min_samples_leaf`` edges and depth-cap hits.
"""

import numpy as np
import pytest

from repro import native
from repro.ml import fit_engine
from repro.ml.bagging import Bagging
from repro.ml.fit_engine import (
    _entropy_scalar,
    _entropy_terms,
    active_engine,
    grow_tree,
    has_ckernel,
)
from repro.ml.forest import RandomForest
from repro.ml import tree as tree_module
from repro.ml.tree import REPTree, RandomTree
from repro.obs import get_registry

needs_ckernel = pytest.mark.skipif(
    not has_ckernel(), reason="no C compiler available"
)


@pytest.fixture()
def reference(monkeypatch):
    """``reference(make)`` runs ``make()`` with the fit kernel disabled,
    so every tree it fits comes from the reference grower."""

    def build(make):
        with monkeypatch.context() as patch:
            patch.setattr(fit_engine, "_get_kernel", lambda: None)
            return make()

    return build


def _frozen_tuple(model):
    tree = model._tree
    return (
        tree.feature.tolist(),
        tree.threshold.tolist(),
        tree.left.tolist(),
        tree.right.tolist(),
        tree.pos.tolist(),
        tree.neg.tolist(),
    )


def _make_dataset(kind: str, n: int, rng: np.random.Generator):
    """Datasets exercising the split-search edge cases."""
    n_features = 7
    X = rng.normal(size=(n, n_features))
    if kind == "ties":
        X = np.round(X, 1)  # heavy duplicate values per column
    elif kind == "constant":
        X[:, 0] = 3.25
        X[:, 3] = -1.0
    elif kind == "duplicated":
        X[:, 1] = X[:, 2]  # equal-gain features: cross-feature ties
        X[:, 4] = np.round(X[:, 4], 0)
    elif kind == "binaryish":
        X = (X > 0).astype(float)  # every candidate is a tie cluster
    y = (X.sum(axis=1) + rng.normal(scale=0.8, size=n) > 0).astype(float)
    return X, y


DATASET_KINDS = ["plain", "ties", "constant", "duplicated", "binaryish"]


def _counters():
    return get_registry().snapshot()["counters"]


def _delta(before, after, name):
    return after.get(name, 0) - before.get(name, 0)


@needs_ckernel
class TestEngineEquality:
    """Property-style grid: C-kernel fits == reference fits."""

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("n", [30, 200, 1000])
    def test_reptree_identical_trees(self, kind, n, reference):
        rng = np.random.default_rng([DATASET_KINDS.index(kind), n])
        X, y = _make_dataset(kind, n, rng)
        expected = reference(lambda: REPTree(seed=5).fit(X, y))
        X_test = rng.normal(size=(64, X.shape[1]))
        model = REPTree(seed=5).fit(X, y)
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert np.array_equal(
            model.predict_proba(X_test), expected.predict_proba(X_test)
        )

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
    def test_randomtree_identical_trees(self, kind, min_samples_leaf, reference):
        """RandomTree: per-node RNG feature sampling must stay in sync."""
        rng = np.random.default_rng([DATASET_KINDS.index(kind), min_samples_leaf])
        X, y = _make_dataset(kind, 300, rng)

        def fit():
            return RandomTree(seed=9, min_samples_leaf=min_samples_leaf).fit(X, y)

        expected = reference(fit)
        X_test = rng.normal(size=(64, X.shape[1]))
        model = fit()
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert np.array_equal(
            model.predict_proba(X_test), expected.predict_proba(X_test)
        )

    @pytest.mark.parametrize("max_depth", [2, 4, 25])
    def test_depth_cap_hits(self, max_depth, reference):
        rng = np.random.default_rng(77)
        X, y = _make_dataset("ties", 500, rng)

        def fit():
            return REPTree(seed=1, max_depth=max_depth).fit(X, y)

        expected = reference(fit)
        model = fit()
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert model.depth <= max_depth

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 7])
    def test_min_samples_leaf_edges(self, min_samples_leaf, reference):
        rng = np.random.default_rng(13)
        # n barely above 2*msl plus a pure-class column tempting an
        # msl-violating split.
        X, y = _make_dataset("ties", 2 * min_samples_leaf + 3, rng)

        def fit():
            return REPTree(seed=2, min_samples_leaf=min_samples_leaf).fit(X, y)

        assert _frozen_tuple(fit()) == _frozen_tuple(reference(fit))

    def test_ensembles_identical(self, reference):
        rng = np.random.default_rng(21)
        X, y = _make_dataset("ties", 400, rng)
        X_test = rng.normal(size=(120, X.shape[1]))

        def fit():
            return (
                Bagging(seed=4).fit(X, y),
                RandomForest(n_estimators=6, seed=4).fit(X, y),
            )

        bag_reference, forest_reference = reference(fit)
        bag, forest = fit()
        assert np.array_equal(
            bag.predict_proba(X_test), bag_reference.predict_proba(X_test)
        )
        assert np.array_equal(
            forest.predict_proba(X_test), forest_reference.predict_proba(X_test)
        )

    def test_single_class_and_tiny_inputs(self, reference):
        X = np.array([[0.0], [1.0], [2.0]])
        for y in (np.zeros(3), np.ones(3)):
            assert REPTree(seed=0).fit(X, y).n_nodes == 1  # pure node: no split
            assert reference(lambda: REPTree(seed=0).fit(X, y)).n_nodes == 1

    def test_non_binary_labels_fall_back_to_reference(self, reference):
        """The kernel assumes 0/1 labels; others take the reference grower."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        y = rng.random(60)  # fractional "labels"
        expected = reference(lambda: REPTree(seed=6).fit(X, y))
        before = _counters()
        model = REPTree(seed=6).fit(X, y)
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert _delta(before, _counters(), "tree_fits{engine=numpy}") == 1

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_uncertain_nodes_match_reference(self, kind, reference, monkeypatch):
        """With an infinite guard band every node with a candidate split is
        uncertain, so it is re-searched by the reference scan over its
        presorted segment -- and still splits identically."""
        rng = np.random.default_rng([DATASET_KINDS.index(kind), 99])
        X, y = _make_dataset(kind, 400, rng)
        expected = reference(lambda: REPTree(seed=8).fit(X, y))
        monkeypatch.setattr(fit_engine, "UNCERTAIN_GAIN_MARGIN", np.inf)
        before = _counters()
        model = REPTree(seed=8).fit(X, y)
        after = _counters()
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert _delta(before, after, "fit_kernel_fallbacks") > 0
        assert _delta(before, after, "tree_fits{engine=c}") == 1


class _Boom(Exception):
    pass


class _RaisingTree(RandomTree):
    """RandomTree whose candidate sampling raises on its third node."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def _candidate_features(self, n_features):
        self.calls += 1
        if self.calls == 3:
            raise _Boom("third node")
        return super()._candidate_features(n_features)


class TestGrowTree:
    @needs_ckernel
    def test_stats_counters(self, reference):
        rng = np.random.default_rng(8)
        X, y = _make_dataset("plain", 200, rng)
        arrays, stats = grow_tree(
            X,
            y,
            candidate_features=None,
            max_depth=25,
            min_samples_leaf=2,
            min_gain=1e-7,
        )
        assert [a.dtype for a in arrays] == [
            np.int64, np.float64, np.int64, np.int64, np.float64, np.float64
        ]
        feature, _threshold, left, right, pos, neg = arrays
        # Unpruned: every created node is popped once and every split
        # survives into the frozen tree.
        assert stats["nodes"] == 2 * stats["splits"] + 1 == len(feature)
        assert (feature >= 0).sum() == stats["splits"]
        assert pos[0] == y.sum() and neg[0] == len(y) - y.sum()
        assert ((left < 0) == (right < 0)).all()
        # Every fit counts one tree_fits under the engine that ran it,
        # and its split nodes, whichever path fitted it.
        for engine, fit in (
            ("c", lambda make: make()),
            ("numpy", reference),
        ):
            before = _counters()
            fit(lambda: REPTree(seed=1).fit(X, y))
            after = _counters()
            assert _delta(before, after, f"tree_fits{{engine={engine}}}") == 1
            assert _delta(before, after, "fit_split_nodes") > 0

    @needs_ckernel
    def test_randomtree_rng_state_after_fit(self, reference):
        """The kernel asks for candidate features exactly as often, and in
        the same order, as the reference grower."""
        rng = np.random.default_rng(31)
        X, y = _make_dataset("ties", 300, rng)
        expected = reference(lambda: RandomTree(seed=3).fit(X, y))
        model = RandomTree(seed=3).fit(X, y)
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert model.rng.bit_generator.state == expected.rng.bit_generator.state

    @needs_ckernel
    def test_default_candidates_take_no_callback(self, monkeypatch):
        """REPTree's inherited ``_candidate_features`` runs inside the
        kernel; any override (class or instance) is called back."""
        seen = []
        real = tree_module.grow_tree

        def spy(*args, **kwargs):
            seen.append(kwargs["candidate_features"])
            return real(*args, **kwargs)

        monkeypatch.setattr(tree_module, "grow_tree", spy)
        X, y = _make_dataset("plain", 60, np.random.default_rng(0))
        REPTree(seed=0).fit(X, y)
        RandomTree(seed=0).fit(X, y)
        overridden = REPTree(seed=0)
        overridden._candidate_features = lambda n_features: np.arange(n_features)
        overridden.fit(X, y)
        assert seen[0] is None
        assert seen[1] is not None and seen[2] is not None

    @needs_ckernel
    def test_candidate_exception_propagates(self):
        X, y = _make_dataset("plain", 300, np.random.default_rng(4))
        model = _RaisingTree(seed=0)
        with pytest.raises(_Boom, match="third node"):
            model.fit(X, y)
        assert model.calls == 3  # the kernel stopped at the raising call
        assert model._tree is None

    @needs_ckernel
    def test_research_exception_propagates(self, monkeypatch):
        def broken(*_args):
            raise _Boom("re-search")

        monkeypatch.setattr(fit_engine, "UNCERTAIN_GAIN_MARGIN", np.inf)
        monkeypatch.setattr(fit_engine, "_search_sorted", broken)
        X, y = _make_dataset("plain", 100, np.random.default_rng(5))
        with pytest.raises(_Boom, match="re-search"):
            REPTree(seed=0).fit(X, y)

    @needs_ckernel
    def test_grow_only_path_matches_reference(self, reference):
        """Fewer rows than folds: grown on every row, never pruned."""
        X = np.array([[0.0, 5.0], [1.0, 3.0], [2.0, 4.0], [3.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])

        def fit():
            return REPTree(seed=2, min_samples_leaf=1, num_folds=5).fit(X, y)

        expected = reference(fit)
        before = _counters()
        model = fit()
        assert _delta(before, _counters(), "tree_fits{engine=c}") == 1
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert model.n_nodes > 1
        assert model.rng.bit_generator.state == expected.rng.bit_generator.state

    @needs_ckernel
    def test_pruned_node_keeps_threshold(self, reference):
        """A collapsed node gets feature -1 but keeps its split threshold;
        a never-split leaf has threshold 0.0."""
        rng = np.random.default_rng(17)
        X = rng.normal(size=(600, 4))
        y = ((X[:, 0] > 0) ^ (rng.random(600) < 0.35)).astype(float)
        expected = reference(lambda: REPTree(seed=3).fit(X, y))
        model = REPTree(seed=3).fit(X, y)
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        leaves = model._tree.left < 0
        assert (model._tree.feature[leaves] == -1).all()
        collapsed = leaves & (model._tree.threshold != 0.0)
        assert collapsed.any()
        assert (model._tree.threshold[leaves & ~collapsed] == 0.0).all()

    @needs_ckernel
    def test_degenerate_splits_exceed_node_capacity(self, reference):
        """A midpoint threshold that rounds onto the upper value sends every
        row left, leaving an empty right child; the chain repeats to the
        depth cap, past 2n - 1 nodes, and still matches the reference."""
        low = 1.0 + 2.0**-52
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low, 0.0], [high, 1.0], [high, 2.0]])
        y = np.array([0.0, 1.0, 0.0])

        def fit():
            return RandomTree(seed=4, min_samples_leaf=1, max_depth=6).fit(X, y)

        expected = reference(fit)
        model = fit()
        assert model.n_nodes > 2 * len(y) - 1
        assert _frozen_tuple(model) == _frozen_tuple(expected)
        assert model.rng.bit_generator.state == expected.rng.bit_generator.state
    def test_forced_c_without_kernel_raises(self, monkeypatch):
        monkeypatch.setattr(fit_engine, "_get_kernel", lambda: None)
        with pytest.raises(RuntimeError):
            grow_tree(
                np.zeros((4, 2)),
                np.array([0.0, 1.0, 0.0, 1.0]),
                candidate_features=None,
                max_depth=5,
                min_samples_leaf=1,
                min_gain=1e-7,
            )


class TestEntropyScalar:
    def test_bitwise_equal_to_array_form(self):
        """The hoisted scalar parent entropy must be bit-identical to the
        seed's throwaway 1-element-array computation."""
        counts = [0.0, 1.0, 2.0, 3.0, 7.0, 10.0, 97.0, 1000.0, 12345.0]
        for pos in counts:
            for neg in counts:
                array_form = float(
                    _entropy_terms(np.array([pos]), np.array([neg]))[0]
                )
                assert _entropy_scalar(pos, neg) == array_form, (pos, neg)


class TestEngineResolution:
    def test_auto_without_kernel_is_numpy(self, monkeypatch):
        monkeypatch.setattr(fit_engine, "_get_kernel", lambda: None)
        assert not has_ckernel()
        assert active_engine() == "numpy"

    @needs_ckernel
    def test_auto_with_kernel_is_c(self):
        assert active_engine() == "c"

    def test_active_engine_never_raises(self, monkeypatch):
        """A failed build (no compiler) reads as ``numpy``, not an error."""
        monkeypatch.setattr(native, "_loaded", {})
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert active_engine() == "numpy"
