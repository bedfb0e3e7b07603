"""Benchmarks of pair featurization: legacy vs the C kernel.

The headline comparison is the one the featurize kernel exists for:
writing the 11-feature matrix for one million candidate pairs into a
preallocated buffer through the compiled kernel versus the legacy
per-feature ``compute_pair_features`` (the oracle, and the no-compiler
path).  The kernel must beat the legacy path by >= 3x (the
featurization acceptance bar) with a byte-identical matrix -- asserted
here on the benchmarked runs.
"""

import numpy as np
import pytest

from repro.splitmfg.featurize_engine import PairFeaturizer, has_ckernel
from repro.splitmfg.pair_features import FEATURES_11, compute_pair_features
from repro.splitmfg.split import SplitView, VPin
from repro.layout.geometry import Point

N_PAIRS = 1_000_000
N_VPINS = 1_500  # C(1500, 2) > 1M: pair indices never repeat a pair


def _synthetic_view(n=N_VPINS, seed=0):
    rng = np.random.default_rng(seed)
    side = 500.0
    vpins = []
    for idx in range(n):
        vx, vy = rng.uniform(0, side, 2)
        vpins.append(
            VPin(
                id=idx,
                net=f"n{idx}",
                location=Point(float(vx), float(vy)),
                fragment_wirelength=float(rng.exponential(12.0)),
                pins=(),
                pin_location=Point(
                    float(np.clip(vx + rng.normal(0, 4), 0, side)),
                    float(np.clip(vy + rng.normal(0, 4), 0, side)),
                ),
                in_area=float(rng.gamma(2.0, 2.0)) if idx % 4 else 0.0,
                out_area=float(rng.gamma(2.0, 2.0)) if idx % 3 else 0.0,
                pc=float(rng.uniform(0.05, 0.95)),
                rc=float(rng.uniform(0.05, 0.95)),
            )
        )
    return SplitView(
        design_name="featurize-bench",
        split_layer=8,
        die_width=side,
        die_height=side,
        vpins=vpins,
    )


@pytest.fixture(scope="module")
def featurize_problem():
    """A view plus 1M random candidate pairs of its v-pins."""
    view = _synthetic_view()
    rng = np.random.default_rng(1)
    i = rng.integers(0, N_VPINS - 1, N_PAIRS)
    j = rng.integers(i + 1, N_VPINS, N_PAIRS)
    return view, i.astype(np.int64), j.astype(np.int64)


def test_featurize_legacy(benchmark, featurize_problem):
    view, i, j = featurize_problem
    X = benchmark.pedantic(
        lambda: compute_pair_features(view, i, j, FEATURES_11),
        rounds=3,
        iterations=1,
    )
    assert X.shape == (N_PAIRS, 11)


@pytest.mark.skipif(not has_ckernel(), reason="no C compiler available")
def test_featurize_ckernel(benchmark, featurize_problem):
    view, i, j = featurize_problem
    featurizer = PairFeaturizer(view, FEATURES_11)
    out = featurizer.out_buffer(N_PAIRS)
    X = benchmark.pedantic(
        lambda: featurizer.rows_into(i, j, out), rounds=3, iterations=1
    )
    assert X.shape == (N_PAIRS, 11)


@pytest.mark.skipif(not has_ckernel(), reason="no C compiler available")
def test_featurize_speedup_meets_bar(featurize_problem):
    """C kernel >= 3x over the legacy featurizer on 1M x 11, with a
    byte-identical matrix."""
    import time

    view, i, j = featurize_problem

    def clock(fn):
        best, result = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    compiled = PairFeaturizer(view, FEATURES_11)
    compiled.rows(i[:64], j[:64])  # warm the kernel before clocking
    legacy_s, legacy = clock(
        lambda: compute_pair_features(view, i, j, FEATURES_11)
    )
    c_out = compiled.out_buffer(N_PAIRS)
    c_s, c_X = clock(lambda: compiled.rows_into(i, j, c_out))
    assert c_X.tobytes() == legacy.tobytes()
    c_speedup = legacy_s / c_s
    print(f"\nlegacy {legacy_s:.3f}s, c {c_s:.3f}s ({c_speedup:.1f}x)")
    assert c_speedup >= 3.0, f"C kernel only {c_speedup:.1f}x"
