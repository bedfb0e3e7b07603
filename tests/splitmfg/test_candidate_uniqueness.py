"""Candidate generators yield every unordered pair at most once.

The top-K tracker keeps each v-pin's K best partners in a bounded heap;
a pair offered twice would occupy two slots.  So every candidate stream
that feeds one tracker -- the all-pairs triangle, any row shard of it,
and the KD-tree neighborhood pairs -- must be duplicate-free.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.scale import shard_rows
from repro.splitmfg.sampling import NeighborhoodIndex, iter_all_pairs


def _keys(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    assert (i < j).all()
    return i.astype(np.int64) * n + j


@given(
    n=st.integers(0, 80),
    chunk_size=st.integers(1, 400),
    n_shards=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_iter_all_pairs_shards_partition_the_triangle(n, chunk_size, n_shards):
    keys = [
        _keys(i, j, n)
        for lo, hi in shard_rows(n, n_shards)
        for i, j in iter_all_pairs(n, chunk_size, row_start=lo, row_stop=hi)
    ]
    keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    assert len(keys) == n * (n - 1) // 2
    assert len(np.unique(keys)) == len(keys)


@given(fraction=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_neighborhood_candidate_pairs_are_unique(views6, fraction):
    for view in views6:
        i, j = NeighborhoodIndex(view, fraction * view.half_perimeter).candidate_pairs()
        keys = _keys(i, j, len(view))
        assert len(np.unique(keys)) == len(keys)
