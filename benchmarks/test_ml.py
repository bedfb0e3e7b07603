"""Benchmarks of tree training: the reference grower vs the C kernel.

The headline comparison is the one the fit kernel exists for: fitting a
REPTree on a paper-scale training set (100k samples, the 11-feature
set) through the per-node-argsort reference grower (the oracle, and the
no-compiler path) versus the presorted C split-search kernel.  The
kernel must beat the reference grower by >= 3x (the training acceptance
bar) and grow a bit-identical tree -- asserted here on the benchmarked
fits.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml import fit_engine
from repro.ml.fit_engine import has_ckernel
from repro.ml.tree import REPTree

N_SAMPLES = 100_000
N_FEATURES = 11  # the paper's 11-feature configuration


@pytest.fixture(scope="module")
def training_problem():
    """A paper-scale (100k x 11) training matrix with realistic columns.

    The 11-feature set mixes quantized columns (routing-grid distances
    are pitch multiples, neighborhood pin/wire counts are integers) with
    continuous ones (direction/area ratios), which is exactly the tie
    structure the split search has to handle.
    """
    rng = np.random.default_rng(0)
    columns = []
    for feature in range(N_FEATURES):
        if feature < 4:  # grid distances: multiples of a 0.19um pitch
            columns.append(np.round(rng.integers(0, 400, N_SAMPLES) * 0.19, 4))
        elif feature < 8:  # neighborhood pin / wire counts
            columns.append(rng.integers(0, 60, N_SAMPLES).astype(float))
        else:  # continuous ratios
            columns.append(rng.normal(size=N_SAMPLES))
    X = np.column_stack(columns)
    y = (
        X @ rng.normal(size=N_FEATURES) / 40
        + rng.normal(scale=0.8, size=N_SAMPLES)
        > 0
    ).astype(float)
    return X, y


@contextmanager
def _reference_grower():
    """Fits inside the block take the reference grower (kernel disabled)."""
    get_kernel = fit_engine._get_kernel
    fit_engine._get_kernel = lambda: None
    try:
        yield
    finally:
        fit_engine._get_kernel = get_kernel


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


def test_fit_reference(benchmark, training_problem):
    X, y = training_problem
    with _reference_grower():
        model = benchmark.pedantic(
            lambda: REPTree(seed=3).fit(X, y),
            rounds=3,
            iterations=1,
        )
    assert model.n_nodes > 1


@pytest.mark.skipif(not has_ckernel(), reason="no C compiler available")
def test_fit_ckernel(benchmark, training_problem):
    X, y = training_problem
    model = benchmark.pedantic(
        lambda: REPTree(seed=3).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_nodes > 1


def test_mlp_fit(benchmark, training_problem):
    """The neural backend's fit on a paper-scale subset (25k x 11).

    A fixed 20-epoch budget (no early stopping) keeps the measured work
    identical across machines, so BENCH_<date>.json entries compare.
    """
    from repro.ml.mlp import MLPClassifier

    X, y = training_problem
    X, y = X[:25_000], y[:25_000]
    model = benchmark.pedantic(
        lambda: MLPClassifier(
            hidden_layers=(32, 16),
            batch_size=256,
            max_epochs=20,
            validation_fraction=0.0,
            seed=3,
        ).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_epochs_ == 20


def test_mlp_predict(benchmark, training_problem):
    """Forward-pass throughput on the full 100k x 11 matrix."""
    from repro.ml.mlp import MLPClassifier

    X, y = training_problem
    model = MLPClassifier(
        hidden_layers=(32, 16),
        batch_size=256,
        max_epochs=5,
        validation_fraction=0.0,
        seed=3,
    ).fit(X[:10_000], y[:10_000])
    prob = benchmark.pedantic(
        lambda: model.predict_proba(X), rounds=3, iterations=1
    )
    assert prob.shape == (len(X),)


@pytest.mark.skipif(not has_ckernel(), reason="no C compiler available")
def test_fit_speedup_meets_training_bar(training_problem):
    """C kernel >= 3x over the reference grower on the paper-scale set,
    with a bit-identical tree."""
    import time

    X, y = training_problem

    def clock():
        best, fitted = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            fitted = REPTree(seed=3).fit(X, y)
            best = min(best, time.perf_counter() - start)
        return best, fitted

    REPTree(seed=3).fit(X[:512], y[:512])  # warm the kernel
    with _reference_grower():
        reference_s, reference = clock()
    c_s, compiled = clock()
    assert _frozen_tuple(compiled) == _frozen_tuple(reference)
    c_speedup = reference_s / c_s
    print(f"\nreference {reference_s:.3f}s, c {c_s:.3f}s ({c_speedup:.1f}x)")
    assert c_speedup >= 3.0, f"C kernel only {c_speedup:.1f}x"
