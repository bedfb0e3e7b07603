"""Decision trees: the base classifiers of the paper's Bagging model.

Two Weka-equivalent variants are provided:

* :class:`RandomTree` -- an unpruned tree that examines a random feature
  subset at every node (the base classifier of Weka's ``RandomForest``,
  used in the paper's prior version [18]);
* :class:`REPTree` -- a tree grown with information gain and then pruned
  by *reduced-error pruning* against a held-out fold (Weka's default
  Bagging base classifier, adopted by the paper for its ~10x speedup).

Leaves store positive/negative training-sample counts so that the soft
voting probability of paper Eq. (1),
``p_i(v, v') = P_i / (P_i + N_i)``, can be evaluated directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.metrics import counter
from .fit_engine import (
    _Node,
    _entropy_scalar,
    _search_sorted,
    grow_tree,
    has_ckernel,
)


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
    min_gain: float,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over the candidate features.

    This is the reference split search the C kernel is held bit-identical
    to: it argsorts each candidate column and hands the orders to the
    shared :func:`repro.ml.fit_engine._search_sorted`.
    """
    total_pos = float(y.sum())
    parent_entropy = _entropy_scalar(total_pos, len(y) - total_pos)
    orders = {f: np.argsort(X[:, f], kind="stable") for f in feature_indices}
    return _search_sorted(
        X.T, y, orders, feature_indices, min_samples_leaf, min_gain,
        parent_entropy, total_pos,
    )


@dataclass
class _FrozenTree:
    """Array-encoded tree for vectorized inference."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.left < 0).sum())

    def depth(self) -> int:
        """Maximum root-to-leaf depth (root = 0)."""
        depths = np.zeros(self.n_nodes, dtype=int)
        for node in range(self.n_nodes):
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.n_nodes else 0


#: Default depth cap.  Weka leaves depth unlimited, but on barely separable
#: data (exactly what two-level pruning mines) unlimited entropy-greedy
#: growth degenerates into O(n)-deep chains and O(n^2) build time; a cap of
#: 25 leaves >3e7 leaves available and never binds on ordinary data.
DEFAULT_MAX_DEPTH = 25


class DecisionTreeBase:
    """Shared grow/freeze/predict machinery for both tree variants."""

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-7,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.rng = np.random.default_rng(seed)
        self._tree: _FrozenTree | None = None
        self._prior = 0.5
        self.n_features_: int | None = None

    # -- overridable ---------------------------------------------------

    def _candidate_features(self, n_features: int) -> np.ndarray:
        """Features examined at a node (all, by default)."""
        return np.arange(n_features)

    # -- fitting --------------------------------------------------------

    def _folds(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """``(grow_rows, prune_rows)`` for reduced-error pruning, or
        ``None`` to grow on every row without pruning (the default)."""
        return None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeBase":
        """Fit through the C kernel, else the reference pipeline.

        Both produce identical frozen trees; see
        :mod:`repro.ml.fit_engine` for the bit-identity contract.  The
        kernel assumes 0/1 labels (exact integer counts), so other labels
        take the reference pipeline too.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y disagree on sample count")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty training set")
        self.n_features_ = X.shape[1]
        self._prior = float(y.mean())
        folds = self._folds(len(y))
        if has_ckernel() and np.isin(y, (0.0, 1.0)).all():
            engine = "c"
            # Without an override every node examines every feature in
            # order, which the kernel does without calling back.
            default = (
                getattr(self._candidate_features, "__func__", None)
                is DecisionTreeBase._candidate_features
            )
            arrays, stats = grow_tree(
                X,
                y,
                candidate_features=None if default else self._candidate_features,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                min_gain=self.min_gain,
                folds=folds,
            )
            tree = _FrozenTree(*arrays)
        else:
            engine = "numpy"
            tree, stats = self._fit_reference(X, y, folds)
        counter("tree_fits", engine=engine).inc()
        counter("fit_split_nodes").inc(stats["splits"])
        if stats["fallbacks"]:
            counter("fit_kernel_fallbacks").inc(stats["fallbacks"])
        self._tree = tree
        return self

    def _fit_reference(
        self,
        X: np.ndarray,
        y: np.ndarray,
        folds: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[_FrozenTree, dict[str, int]]:
        """Reference fit: grow, prune against the held-out fold, count
        every row into the nodes it reaches, freeze (the kernel's oracle)."""
        if folds is None:
            root, stats = self._grow_reference(X, y, depth=0)
        else:
            grow_rows, prune_rows = folds
            root, stats = self._grow_reference(X[grow_rows], y[grow_rows], depth=0)
            self._route(root, X[prune_rows], y[prune_rows], "prune")
            self._prune(root)
        self._route(root, X, y, "total")
        return self._freeze(root), stats

    def _grow_reference(
        self, X: np.ndarray, y: np.ndarray, depth: int
    ) -> tuple[_Node, dict[str, int]]:
        """Reference grower: per-node argsorts (the bit-identity oracle).

        Returns the root plus the ``{"splits", "fallbacks"}`` counters
        :meth:`fit` records (no kernel, so no fallbacks).
        """

        def new_node(ys: np.ndarray) -> _Node:
            pos = float(ys.sum())
            return _Node(grow_pos=pos, grow_neg=float(len(ys) - pos))

        root = new_node(y)
        stats = {"splits": 0, "fallbacks": 0}
        stack: list[tuple[_Node, np.ndarray, np.ndarray, int]] = [
            (root, X, y, depth)
        ]
        while stack:
            node, Xn, yn, d = stack.pop()
            pos, neg = node.grow_pos, node.grow_neg
            if (
                len(yn) < 2 * self.min_samples_leaf
                or pos == 0
                or neg == 0
                or (self.max_depth is not None and d >= self.max_depth)
            ):
                continue
            split = _best_split(
                Xn,
                yn,
                self._candidate_features(Xn.shape[1]),
                self.min_samples_leaf,
                self.min_gain,
            )
            if split is None:
                continue
            feature, threshold, _gain = split
            mask = Xn[:, feature] <= threshold
            stats["splits"] += 1
            node.feature = feature
            node.threshold = threshold
            node.left = new_node(yn[mask])
            node.right = new_node(yn[~mask])
            stack.append((node.left, Xn[mask], yn[mask], d + 1))
            stack.append((node.right, Xn[~mask], yn[~mask], d + 1))
        return root, stats

    def _route(self, root: _Node, X: np.ndarray, y: np.ndarray, field_prefix: str) -> None:
        """Accumulate per-node class counts of ``(X, y)`` into the tree."""
        pos_field = f"{field_prefix}_pos"
        neg_field = f"{field_prefix}_neg"
        stack: list[tuple[_Node, np.ndarray]] = [(root, np.arange(len(y)))]
        while stack:
            node, rows = stack.pop()
            pos = float(y[rows].sum())
            setattr(node, pos_field, getattr(node, pos_field) + pos)
            setattr(node, neg_field, getattr(node, neg_field) + len(rows) - pos)
            if node.is_leaf:
                continue
            if len(rows) == 0:
                empty = rows
                stack.append((node.left, empty))
                stack.append((node.right, empty))
                continue
            mask = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))

    def _freeze(self, root: _Node) -> _FrozenTree:
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        pos: list[float] = []
        neg: list[float] = []

        # Iterative pre-order emission; parents patch in child indices.
        stack: list[tuple[_Node, int, str]] = [(root, -1, "")]
        while stack:
            node, parent, side = stack.pop()
            idx = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(-1)
            right.append(-1)
            pos.append(node.total_pos)
            neg.append(node.total_neg)
            if parent >= 0:
                if side == "L":
                    left[parent] = idx
                else:
                    right[parent] = idx
            if not node.is_leaf:
                stack.append((node.right, idx, "R"))
                stack.append((node.left, idx, "L"))
        return _FrozenTree(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            pos=np.array(pos),
            neg=np.array(neg),
        )

    def _prune(self, root: _Node) -> None:
        """Bottom-up reduced-error pruning (iterative post-order)."""
        subtree_error: dict[int, float] = {}

        def leaf_error(node: _Node) -> float:
            return node.prune_neg if node.majority_positive else node.prune_pos

        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                subtree_error[id(node)] = leaf_error(node)
                continue
            if not expanded:
                stack.append((node, True))
                stack.append((node.left, False))
                stack.append((node.right, False))
                continue
            children_error = (
                subtree_error.pop(id(node.left))
                + subtree_error.pop(id(node.right))
            )
            collapsed = leaf_error(node)
            if collapsed <= children_error:
                node.make_leaf()
                subtree_error[id(node)] = collapsed
            else:
                subtree_error[id(node)] = children_error

    # -- inference ------------------------------------------------------

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        assert self._tree is not None, "fit() first"
        tree = self._tree
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = tree.left[idx] >= 0
            if not internal.any():
                return idx
            rows = np.nonzero(internal)[0]
            nodes = idx[rows]
            go_left = (
                X[rows, tree.feature[nodes]] <= tree.threshold[nodes]
            )
            idx[rows] = np.where(
                go_left, tree.left[nodes], tree.right[nodes]
            )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-sample probability of the positive class, paper Eq. (1)."""
        X = np.asarray(X, dtype=float)
        if self.n_features_ is not None and X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        assert self._tree is not None, "fit() first"
        leaves = self._leaf_indices(X)
        pos = self._tree.pos[leaves]
        neg = self._tree.neg[leaves]
        total = pos + neg
        proba = np.full(len(X), self._prior)
        nonempty = total > 0
        proba[nonempty] = pos[nonempty] / total[nonempty]
        return proba

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)

    # -- introspection ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.n_nodes

    @property
    def n_leaves(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.n_leaves

    @property
    def depth(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.depth()


class RandomTree(DecisionTreeBase):
    """Unpruned tree over a random feature subset per node (Weka-style).

    The subset size is Weka's default ``int(log2(F)) + 1``.
    """

    def _candidate_features(self, n_features: int) -> np.ndarray:
        k = max(1, int(np.log2(n_features)) + 1)
        k = min(k, n_features)
        return self.rng.choice(n_features, size=k, replace=False)


class REPTree(DecisionTreeBase):
    """Information-gain tree with reduced-error pruning (Weka's REPTree).

    The training data is split into ``num_folds`` folds; the tree grows on
    ``num_folds - 1`` of them and is pruned bottom-up against the held-out
    fold: a subtree collapses to a leaf whenever the leaf's error on the
    pruning fold does not exceed the subtree's.  Leaf counts for Eq. (1)
    are then re-accumulated from *all* training data.
    """

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-7,
        num_folds: int = 3,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(max_depth, min_samples_leaf, min_gain, seed)
        if num_folds < 2:
            raise ValueError("num_folds must be >= 2")
        self.num_folds = num_folds

    def _folds(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        if n < self.num_folds:
            return None  # too little data to prune; grow only
        perm = self.rng.permutation(n)
        return perm[n // self.num_folds :], perm[: n // self.num_folds]
