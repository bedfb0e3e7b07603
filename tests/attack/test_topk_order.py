"""The top-K total order: probability descending, then partner id ascending.

Under a strict total order per-v-pin top-K is associative, so the C heap
kernel, the NumPy oracle, every chunking, every shard count and every
``jobs`` setting must produce the same tracker and the same result --
and that result must equal a brute-force ranking of the full
:func:`~repro.attack.framework.evaluate_attack` probabilities.
"""

import itertools

import numpy as np
import pytest

from repro.attack import topk
from repro.attack.config import IMP_9, ML_9
from repro.attack.framework import evaluate_attack, train_attack
from repro.attack.scale import evaluate_attack_scaled
from repro.attack.topk import TopKTracker, evaluate_attack_topk
from repro.obs import get_registry

needs_ckernel = pytest.mark.skipif(
    topk._get_kernel() is None, reason="no C compiler available"
)

ENGINES = ["c", "numpy"]


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Run the test on the C kernel and again on the NumPy oracle.

    Forcing NumPy patches the module's ``_get_kernel``, which forked pool
    workers inherit.
    """
    if request.param == "c":
        if topk._get_kernel() is None:
            pytest.skip("no C compiler available")
    else:
        monkeypatch.setattr(topk, "_get_kernel", lambda: None)
    return request.param


def _tracker(n: int, k: int, engine: str) -> TopKTracker:
    tracker = TopKTracker(n, k)
    if engine == "numpy":
        tracker._lib = None
    return tracker


def _stream(n, k, engine, i, j, p, n_chunks):
    tracker = _tracker(n, k, engine)
    for chunk in np.array_split(np.arange(len(i)), n_chunks):
        tracker.update(i[chunk], j[chunk], p[chunk])
    return tracker


def _oracle_rows(n, k, i, j, p):
    """Each v-pin's first k partners under the total order, sentinel-padded."""
    partner = np.full((n, k), -1, dtype=np.int64)
    prob = np.full((n, k), -np.inf)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    probs = np.concatenate([p, p])
    for v in range(n):
        mine = rows == v
        order = np.lexsort((cols[mine], -probs[mine]))[:k]
        partner[v, : len(order)] = cols[mine][order]
        prob[v, : len(order)] = probs[mine][order]
    return partner, prob


def _random_pairs(n, probs, seed):
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    order = rng.permutation(len(i))
    i, j = i[order], j[order]
    if probs == "uniform":
        p = rng.random(len(i))
    elif probs == "equal":
        p = np.full(len(i), 0.5)
    else:  # coarse: few distinct values, many ties
        p = rng.integers(0, 5, len(i)) / 4.0
    return i, j, p


class TestKernelMatchesOracle:
    @needs_ckernel
    @pytest.mark.parametrize("k", [1, 3, 64])
    @pytest.mark.parametrize("n", [2, 9, 40])
    @pytest.mark.parametrize("probs", ["uniform", "equal", "coarse"])
    @pytest.mark.parametrize("n_chunks", [1, 7])
    def test_state_identical(self, n, k, probs, n_chunks):
        i, j, p = _random_pairs(n, probs, seed=n * 100 + k)
        c = _stream(n, k, "c", i, j, p, n_chunks)
        oracle = _stream(n, k, "numpy", i, j, p, n_chunks)
        for got, want in zip(c.state(), oracle.state()):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(c.harvest(), oracle.harvest()):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3, 64])
    @pytest.mark.parametrize("probs", ["uniform", "equal", "coarse"])
    def test_state_is_the_total_order_ranking(self, engine, k, probs):
        n = 25
        i, j, p = _random_pairs(n, probs, seed=k)
        tracker = _stream(n, k, engine, i, j, p, n_chunks=5)
        partner, prob = tracker.state()
        want_partner, want_prob = _oracle_rows(n, k, i, j, p)
        np.testing.assert_array_equal(partner, want_partner)
        np.testing.assert_array_equal(prob, want_prob)

    def test_k_above_n_keeps_everything_and_pads(self, engine):
        n, k = 4, 10
        i, j, p = _random_pairs(n, "coarse", seed=1)
        partner, prob = _stream(n, k, engine, i, j, p, n_chunks=2).state()
        assert (partner[:, : n - 1] >= 0).all()
        assert (partner[:, n - 1 :] == -1).all()
        assert np.isneginf(prob[:, n - 1 :]).all()

    def test_empty_chunks_are_no_ops(self, engine):
        n, k = 6, 2
        i, j, p = _random_pairs(n, "coarse", seed=2)
        tracker = _tracker(n, k, engine)
        empty_i = np.zeros(0, dtype=np.int64)
        tracker.update(empty_i, empty_i, np.zeros(0))
        tracker.update(i, j, p)
        tracker.update(empty_i, empty_i, np.zeros(0))
        reference = _stream(n, k, engine, i, j, p, n_chunks=1)
        for got, want in zip(tracker.state(), reference.state()):
            np.testing.assert_array_equal(got, want)

    def test_ties_keep_lowest_partner_ids(self, engine):
        tracker = _tracker(5, 2, engine)
        tracker.update(
            np.array([0, 0, 0, 0]), np.array([4, 2, 3, 1]), np.full(4, 0.5)
        )
        partner, _prob = tracker.state()
        np.testing.assert_array_equal(partner[0], [1, 2])

    def test_out_of_range_ids_rejected(self, engine):
        tracker = _tracker(3, 2, engine)
        with pytest.raises(ValueError, match="pair ids"):
            tracker.update(np.array([0]), np.array([3]), np.array([0.5]))
        with pytest.raises(ValueError, match="pair ids"):
            tracker.update(np.array([-1]), np.array([1]), np.array([0.5]))
        with pytest.raises(ValueError, match="length"):
            tracker.update(np.array([0, 1]), np.array([1, 2]), np.array([0.5]))

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_merge_state_equals_streaming(self, engine, k):
        """Shard states (many with sentinel rows) merge to the one-tracker
        result, in any merge order."""
        n = 30
        i, j, p = _random_pairs(n, "coarse", seed=k + 7)
        whole = _stream(n, k, engine, i, j, p, n_chunks=3).state()
        parts = np.array_split(np.arange(len(i)), 4)
        states = [
            _stream(n, k, engine, i[idx], j[idx], p[idx], n_chunks=2).state()
            for idx in parts
        ]
        # A shard that saw no pairs is all sentinels.
        states.append(_tracker(n, k, engine).state())
        for order in (range(len(states)), reversed(range(len(states)))):
            merged = _tracker(n, k, engine)
            for index in order:
                merged.merge_state(*states[index])
            for got, want in zip(merged.state(), whole):
                np.testing.assert_array_equal(got, want)

    @needs_ckernel
    def test_engines_exchange_states(self):
        """A NumPy state merged by the kernel (and vice versa) is exact."""
        n, k = 20, 3
        i, j, p = _random_pairs(n, "equal", seed=3)
        half = len(i) // 2
        whole = _stream(n, k, "numpy", i, j, p, n_chunks=1).state()
        for first, second in (("c", "numpy"), ("numpy", "c")):
            merged = _stream(n, k, first, i[:half], j[:half], p[:half], 1)
            other = _stream(n, k, second, i[half:], j[half:], p[half:], 1)
            merged.merge_state(*other.state())
            for got, want in zip(merged.state(), whole):
                np.testing.assert_array_equal(got, want)

    def test_state_shape_checked(self, engine):
        tracker = _tracker(3, 2, engine)
        with pytest.raises(ValueError, match="shape"):
            tracker.merge_state(np.zeros((3, 3), dtype=np.int64), np.zeros((3, 3)))


class TestCounters:
    def test_chunks_counted_by_engine(self, engine):
        get_registry().reset()
        tracker = TopKTracker(4, 2)
        tracker.update(np.array([0, 1]), np.array([2, 3]), np.array([0.1, 0.2]))
        tracker.update(np.array([0]), np.array([1]), np.array([0.3]))
        counters = get_registry().snapshot()["counters"]
        assert counters[f"topk_chunks{{engine={engine}}}"] == 2
        fallbacks = counters.get("topk_kernel_fallbacks", 0)
        assert fallbacks == (1 if engine == "numpy" else 0)


def _brute_force(full, n: int, k: int):
    """Union of every v-pin's first k partners under the total order."""
    rows = np.concatenate([full.pair_i, full.pair_j])
    cols = np.concatenate([full.pair_j, full.pair_i])
    probs = np.concatenate([full.prob, full.prob])
    order = np.lexsort((cols, -probs, rows))
    rows, cols, probs = rows[order], cols[order], probs[order]
    starts = np.searchsorted(rows, np.arange(n))
    rank = np.arange(len(rows)) - starts[rows]
    keep = rank < k
    lo = np.minimum(rows, cols)[keep]
    hi = np.maximum(rows, cols)[keep]
    keys, first = np.unique(lo * n + hi, return_index=True)
    return keys // n, keys % n, probs[keep][first]


@pytest.fixture(scope="module")
def scored(views6):
    """A trained ML-9 attack, its layer-6 test view (160 v-pins, many
    tied probabilities), and the exact evaluation."""
    trained = train_attack(ML_9, views6[1:], seed=0)
    view = views6[0]
    return trained, view, evaluate_attack(trained, view)


class TestResultIndependentOfKnobs:
    K = 5

    def test_scaled_grid_equals_brute_force(self, scored, engine):
        trained, view, full = scored
        assert self.K < len(view) - 1  # eviction actually happens
        want = _brute_force(full, len(view), self.K)
        for chunk_size, n_shards, jobs in itertools.product(
            (17, 1000, 400_000), (1, 2, 3), (1, 2)
        ):
            got = evaluate_attack_scaled(
                trained,
                view,
                k=self.K,
                chunk_size=chunk_size,
                n_shards=n_shards,
                jobs=jobs,
            )
            knobs = (chunk_size, n_shards, jobs)
            assert got.n_pairs_evaluated == full.n_pairs_evaluated, knobs
            np.testing.assert_array_equal(got.pair_i, want[0], err_msg=str(knobs))
            np.testing.assert_array_equal(got.pair_j, want[1], err_msg=str(knobs))
            np.testing.assert_array_equal(got.prob, want[2], err_msg=str(knobs))

    @pytest.mark.parametrize("config", [ML_9, IMP_9], ids=lambda c: c.name)
    def test_streaming_equals_brute_force(self, views6, engine, config):
        trained = train_attack(config, views6[1:], seed=0)
        view = views6[0]
        want = _brute_force(evaluate_attack(trained, view), len(view), self.K)
        for chunk_size in (17, 1000, 400_000):
            got = evaluate_attack_topk(trained, view, k=self.K, chunk_size=chunk_size)
            np.testing.assert_array_equal(got.pair_i, want[0])
            np.testing.assert_array_equal(got.pair_j, want[1])
            np.testing.assert_array_equal(got.prob, want[2])
