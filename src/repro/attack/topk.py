"""Bounded-memory evaluation: per-v-pin top-K candidate tracking.

At split layer 4 the paper's designs have ~2e5 v-pins; recording all
C(n,2) pair probabilities (as :func:`repro.attack.framework
.evaluate_attack` does) would need ~2e10 entries.  The streaming
evaluator keeps, per v-pin, only its K best-scoring candidates while
chunks flow through the classifier -- memory O(n*K) regardless of how
many pairs are tested, at the cost of losing the exact global threshold
sweep below the per-v-pin cutoff.

For every metric computed above the cutoff the result is *exact*:
a pair survives iff it is in the top-K of at least one of its two
endpoints, and LoC sizes up to K per v-pin are unaffected.

"Top-K" is defined by a strict total order on a v-pin's candidates:
**probability descending, then partner id ascending**.  Tree-ensemble
probabilities are coarse, so exact ties are common and decide the
cutoff; under a total order per-v-pin top-K is associative, and the
survivors depend only on which pairs were scored -- never on chunking,
sharding, merge order or engine.

Two engines merge chunks into the tracker:

* a C bounded-heap kernel (built through :mod:`repro.native` on first
  use): each v-pin's row is a min-heap whose root is its current worst
  entry, so a candidate no better than the root costs one comparison
  and any other replaces the root in O(log K);
* a NumPy per-v-pin ``lexsort`` merge -- the oracle the kernel is
  tested against, and the fallback when no compiler is available
  (counted in ``topk_kernel_fallbacks``).

Every merged chunk increments ``topk_chunks{engine=c|numpy}``.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np

from ..native import build_kernel, load_once
from ..obs.metrics import counter
from ..splitmfg.featurize_engine import PairFeaturizer
from ..splitmfg.split import SplitView
from .framework import TrainedAttack, _candidate_chunks, score_chunks
from .result import AttackResult

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* (p, a) ranks below (q, b): lower probability, or equal probability
 * and a higher partner id.  Empty slots are (-inf, -1). */
#define WORSE(p, a, q, b) ((p) < (q) || ((p) == (q) && (a) > (b)))

/* Place (p, who) at heap position pos of a size-long row, sifting it
 * down past every child that ranks below it. */
static void sift_down(double *prob, int64_t *partner, int64_t size,
                      int64_t pos, double p, int64_t who)
{
    for (;;) {
        int64_t c = 2 * pos + 1;
        if (c >= size) break;
        if (c + 1 < size && WORSE(prob[c + 1], partner[c + 1], prob[c], partner[c]))
            c++;
        if (!WORSE(prob[c], partner[c], p, who)) break;
        prob[pos] = prob[c];
        partner[pos] = partner[c];
        pos = c;
    }
    prob[pos] = p;
    partner[pos] = who;
}

static inline void push(double *prob, int64_t *partner, int64_t k,
                        double p, int64_t who)
{
    if (WORSE(prob[0], partner[0], p, who))
        sift_down(prob, partner, k, 0, p, who);
}

/* Offer scored pair t to both endpoints: (p[t], j[t]) to row i[t] and
 * (p[t], i[t]) to row j[t]. */
void repro_topk_update(double *prob, int64_t *partner, int64_t k,
                       const int64_t *i, const int64_t *j,
                       const double *p, int64_t m)
{
    for (int64_t t = 0; t < m; t++) {
        const int64_t a = i[t], b = j[t];
        push(prob + a * k, partner + a * k, k, p[t], b);
        push(prob + b * k, partner + b * k, k, p[t], a);
    }
}

/* Offer every filled slot of another (n, k) state to its own row. */
void repro_topk_merge(double *prob, int64_t *partner, int64_t n, int64_t k,
                      const double *other_prob, const int64_t *other_partner)
{
    for (int64_t v = 0; v < n; v++) {
        for (int64_t s = 0; s < k; s++) {
            const int64_t w = other_partner[v * k + s];
            if (w >= 0)
                push(prob + v * k, partner + v * k, k, other_prob[v * k + s], w);
        }
    }
}

/* Heapsort every row in place, best entry first. */
void repro_topk_sort_rows(double *prob, int64_t *partner, int64_t n, int64_t k)
{
    for (int64_t v = 0; v < n; v++) {
        double *hp = prob + v * k;
        int64_t *hw = partner + v * k;
        for (int64_t end = k - 1; end > 0; end--) {
            const double p = hp[end];
            const int64_t w = hw[end];
            hp[end] = hp[0];
            hw[end] = hw[0];
            sift_down(hp, hw, end, 0, p, w);
        }
    }
}
"""

def _compile_kernel() -> "ctypes.CDLL | None":
    """Compile and load the C kernel; ``None`` when unavailable."""
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    return build_kernel(
        "topk",
        _KERNEL_SOURCE,
        {
            "repro_topk_update": ([ptr, ptr, i64, ptr, ptr, ptr, i64], None),
            "repro_topk_merge": ([ptr, ptr, i64, i64, ptr, ptr], None),
            "repro_topk_sort_rows": ([ptr, ptr, i64, i64], None),
        },
    )


def _get_kernel() -> "ctypes.CDLL | None":
    """The process-wide compiled kernel (built on first use)."""
    return load_once("topk", _compile_kernel)


def _int64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


class TopKTracker:
    """Streaming per-v-pin top-K accumulator.

    Fixed ``(n, K)`` arrays of partner ids and probabilities, empty
    slots holding ``(-1, -inf)``; each :meth:`update` merges a chunk.
    The kept entries are each v-pin's K best candidates under the
    module's total order, so the tracker's content depends only on the
    set of pairs it has seen, provided each unordered pair arrives at
    most once.  ``harvest`` returns the union of the per-v-pin lists as
    deduplicated pair arrays.
    """

    def __init__(self, n_vpins: int, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n_vpins
        self.k = k
        self._partner = np.full((n_vpins, k), -1, dtype=np.int64)
        self._prob = np.full((n_vpins, k), -np.inf)
        self._lib = _get_kernel()
        if self._lib is None:
            counter("topk_kernel_fallbacks").inc()
        self._chunks = counter("topk_chunks", engine="numpy" if self._lib is None else "c")

    def _merge_side(self, ids: np.ndarray, partners: np.ndarray, probs: np.ndarray) -> None:
        """NumPy merge: offer ``(probs, partners)`` to rows ``ids``.

        Each touched row is re-ranked with a ``lexsort`` under the total
        order, which keeps NumPy rows sorted best-first.
        """
        order = np.argsort(ids, kind="stable")
        ids, partners, probs = ids[order], partners[order], probs[order]
        boundaries = np.nonzero(np.diff(ids))[0] + 1
        for chunk_ids, chunk_partners, chunk_probs in zip(
            np.split(ids, boundaries),
            np.split(partners, boundaries),
            np.split(probs, boundaries),
        ):
            v = int(chunk_ids[0])
            merged_p = np.concatenate([self._prob[v], chunk_probs])
            merged_partner = np.concatenate([self._partner[v], chunk_partners])
            top = np.lexsort((merged_partner, -merged_p))[: self.k]
            self._prob[v] = merged_p[top]
            self._partner[v] = merged_partner[top]

    def update(self, i: np.ndarray, j: np.ndarray, p: np.ndarray) -> None:
        """Merge a scored chunk of pairs (both directions)."""
        if not len(i) == len(j) == len(p):
            raise ValueError(
                f"chunk length mismatch: {len(i)} / {len(j)} / {len(p)}"
            )
        if len(i) == 0:
            return
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= self.n:
            raise ValueError(f"pair ids must lie in [0, {self.n})")
        self._chunks.inc()
        if self._lib is None:
            self._merge_side(i, j, p)
            self._merge_side(j, i, p)
            return
        i, j = _int64(i), _int64(j)
        p = np.ascontiguousarray(p, dtype=np.float64)
        self._lib.repro_topk_update(
            self._prob.ctypes.data,
            self._partner.ctypes.data,
            self.k,
            i.ctypes.data,
            j.ctypes.data,
            p.ctypes.data,
            len(i),
        )

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the ``(n, k)`` partner/probability arrays.

        Each row is sorted best-first under the total order (empty slots
        last), so states compare equal across engines, chunkings and
        shard counts.  O(n*k) regardless of how many pairs streamed
        through -- the cheap thing to ship back from a worker shard.
        """
        partner, prob = self._partner.copy(), self._prob.copy()
        if self._lib is not None:
            self._lib.repro_topk_sort_rows(
                prob.ctypes.data, partner.ctypes.data, self.n, self.k
            )
        return partner, prob

    def merge_state(self, partner: np.ndarray, prob: np.ndarray) -> None:
        """Merge another tracker's :meth:`state` arrays into this one.

        Each filled slot is offered to its own row.  Under the total
        order the merge is associative and commutative, so merging shard
        states gives the same tracker as streaming every shard's pairs
        into one -- provided no pair was seen by both trackers.
        """
        if partner.shape != (self.n, self.k) or prob.shape != (self.n, self.k):
            raise ValueError(
                f"state shape mismatch: expected {(self.n, self.k)}, "
                f"got {partner.shape} / {prob.shape}"
            )
        if self._lib is not None:
            partner = _int64(partner)
            prob = np.ascontiguousarray(prob, dtype=np.float64)
            self._lib.repro_topk_merge(
                self._prob.ctypes.data,
                self._partner.ctypes.data,
                self.n,
                self.k,
                prob.ctypes.data,
                partner.ctypes.data,
            )
            return
        ids = np.repeat(np.arange(self.n), self.k)
        partners = np.asarray(partner).ravel()
        probs = np.asarray(prob).ravel()
        valid = partners >= 0
        if valid.any():
            self._merge_side(ids[valid], partners[valid], probs[valid])

    def harvest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicated surviving pairs as ``(i, j, prob)`` with i < j."""
        rows = np.repeat(np.arange(self.n), self.k)
        partners = self._partner.ravel()
        probs = self._prob.ravel()
        valid = partners >= 0
        rows, partners, probs = rows[valid], partners[valid], probs[valid]
        lo = np.minimum(rows, partners)
        hi = np.maximum(rows, partners)
        keys = lo * self.n + hi
        _unique, first = np.unique(keys, return_index=True)
        return lo[first], hi[first], probs[first]


def evaluate_attack_topk(
    trained: TrainedAttack,
    view: SplitView,
    k: int = 64,
    chunk_size: int = 400_000,
) -> AttackResult:
    """Streaming counterpart of :func:`repro.attack.framework.evaluate_attack`.

    Produces an :class:`AttackResult` whose pairs are each endpoint's
    top-``k`` candidates under the total order (probability descending,
    then partner id ascending); all LoC metrics up to ``k`` candidates
    per v-pin match the exact evaluation, and the result does not depend
    on ``chunk_size``.
    """
    start = time.perf_counter()
    tracker = TopKTracker(len(view), k)
    n_evaluated = 0
    for i, j, _, p in score_chunks(
        trained.model,
        PairFeaturizer(view, trained.config.features),
        _candidate_chunks(trained, view, chunk_size),
        chunk_size,
        all_pairs=trained.neighborhood is None,
        limit_axis=trained.limit_axis,
    ):
        tracker.update(i, j, p)
        n_evaluated += len(i)
    pair_i, pair_j, prob = tracker.harvest()
    return AttackResult(
        view=view,
        pair_i=pair_i,
        pair_j=pair_j,
        prob=prob,
        config_name=f"{trained.config.name}+top{k}",
        train_time=trained.train_time,
        test_time=time.perf_counter() - start,
        n_pairs_evaluated=n_evaluated,
    )
