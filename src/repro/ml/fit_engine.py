"""Tree-fitting engine: one C call fits one tree.

The reference pipeline of :class:`repro.ml.tree.DecisionTreeBase` grows a
tree with per-node argsorts (``_grow_reference``), routes the pruning
fold through it (``_route``), prunes it (``_prune``), counts every row
into the nodes it reaches (``_route`` again) and freezes it into arrays
(``_freeze``) -- Python node loops that dominate every Bagging fit, and
so every experiment: each LOO fold fits 10 REPTrees.  :func:`grow_tree`
runs that whole pipeline in one call of a small C kernel (built through
:mod:`repro.native` on first use):

* each feature column is stably argsorted once (NumPy), and the kernel
  keeps every node's rows as one segment of each feature's order;
  a split stably partitions the node's segments in place, so every node
  sees its rows in exactly the order ``np.argsort(x, kind="stable")``
  on its subset gives the reference grower;
* the split search fuses the cumulative class counts, candidate
  enumeration and split scoring into one pass per node;
* nodes are expanded from a LIFO stack, left child pushed first, like
  the reference; the pruning fold and then every row are routed, the
  tree is pruned bottom-up, and the frozen arrays are written in
  pre-order into caller-allocated buffers.

Python is called back only for what must stay in Python: a tree class's
own ``_candidate_features`` (RandomTree's RNG draws, once per expandable
node in pop order; never for the inherited all-features default) and
the re-search of uncertain nodes below.  An exception in either aborts
the fit and is re-raised.  Without a compiler (or when labels are not
0/1) the reference pipeline runs instead; it is both the oracle and the
fallback.

Bit-identity contract
---------------------

Trees fitted through the kernel are **identical** to the reference
pipeline's -- same feature, threshold and class counts at every node of
the frozen arrays, ties and duplicated feature values included, pruned
descendants dropped, a collapsed node keeping its old threshold -- so
every report byte and run-manifest ``report_sha256`` is unchanged.  The
kernel cannot call NumPy's ``log`` (libm's ``log`` differs from it in
the last ulp), so it scores candidates on an order-equivalent
integer-count statistic ``S = -(sum of k*ln(k) terms)`` built from a
NumPy-precomputed ``k -> k*ln(k)`` table, and *selects* rather than
scores: whenever the winning margin is within a guard band
(:data:`UNCERTAIN_GAIN_MARGIN`, orders of magnitude above both
implementations' rounding error) -- or the winner sits within the band
of the ``min_gain`` acceptance threshold -- the node is declared
uncertain and re-searched by :func:`_search_sorted`, the reference scan
over the node's presorted orders.  Exact ties (mirrored or duplicated
count partitions, the common case on real data) are recognised
structurally and resolved first-wins, exactly like the reference's
``argmax``/strict-``>`` scan.  Routing, pruning and counting work on
exact integer counts, which the reference's float sums of 0/1 labels
equal.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from ..native import build_kernel, load_once

_EPS = 1e-12

#: Guard band (in nats of information gain) around split-selection
#: decisions made by the C kernel.  Its rounding error and the reference
#: scan's are both below ~1e-12 nats, so a margin above the band is
#: decided identically by both; anything inside it is re-searched by the
#: reference scan.  :func:`grow_tree` reads it at call time.
UNCERTAIN_GAIN_MARGIN = 1e-6


def _entropy_terms(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Binary entropy (in nats) of count vectors, elementwise."""
    total = pos + neg
    total = np.maximum(total, _EPS)
    p = pos / total
    q = neg / total
    return -(p * np.log(np.maximum(p, _EPS)) + q * np.log(np.maximum(q, _EPS)))


def _entropy_scalar(pos: float, neg: float) -> float:
    """Binary entropy of one count pair, without throwaway arrays.

    Bit-identical to ``_entropy_terms(np.array([pos]), np.array([neg]))[0]``
    (asserted over a count grid in the tests): scalar ``np.log`` runs the
    same ufunc loop as the 1-element array, and the surrounding float64
    arithmetic is the same IEEE operations in the same order.
    """
    total = pos + neg
    if total < _EPS:
        total = _EPS
    p = pos / total
    q = neg / total
    log_p = np.log(p if p > _EPS else _EPS)
    log_q = np.log(q if q > _EPS else _EPS)
    return float(-(p * log_p + q * log_q))


@dataclass
class _Node:
    """Mutable tree node used while growing/pruning."""

    grow_pos: float
    grow_neg: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    prune_pos: float = 0.0
    prune_neg: float = 0.0
    total_pos: float = 0.0
    total_neg: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def majority_positive(self) -> bool:
        return self.grow_pos >= self.grow_neg

    def make_leaf(self) -> None:
        self.feature = -1
        self.left = None
        self.right = None


def _scan_sorted(
    xs: np.ndarray,
    ys: np.ndarray,
    total_pos: float,
    min_samples_leaf: int,
    min_gain: float,
    parent_entropy: float,
) -> tuple[float, float] | None:
    """Best (threshold, gain) of one feature already in sorted order.

    The one split scan, run per feature by :func:`_search_sorted`.
    Candidates are midpoints between consecutive distinct sorted values;
    gain is the information gain of the induced binary partition.
    """
    n = len(ys)
    if xs[0] == xs[-1]:
        return None
    cum_pos = np.cumsum(ys)
    left_n = np.arange(1, n)
    left_pos = cum_pos[:-1]
    left_neg = left_n - left_pos
    right_n = n - left_n
    right_pos = total_pos - left_pos
    right_neg = right_n - right_pos
    valid = (xs[:-1] < xs[1:]) & (left_n >= min_samples_leaf) & (
        right_n >= min_samples_leaf
    )
    if not valid.any():
        return None
    child_entropy = (
        left_n * _entropy_terms(left_pos, left_neg)
        + right_n * _entropy_terms(right_pos, right_neg)
    ) / n
    gain = parent_entropy - child_entropy
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))
    g = float(gain[k])
    if g <= min_gain:
        return None
    return float((xs[k] + xs[k + 1]) / 2.0), g


def _search_sorted(
    columns: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray | Mapping[int, np.ndarray],
    feats: Iterable[int],
    min_samples_leaf: int,
    min_gain: float,
    parent_entropy: float,
    total_pos: float,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over the candidate features.

    ``orders[f]`` lists the node's rows in stable sorted order of
    ``columns[f]``.  Each feature is scanned by :func:`_scan_sorted`
    (first maximum within a feature) and features compete by strict
    ``>`` in ``feats`` order.  The reference grower calls this after its
    per-node argsorts; the C path calls it on the presorted orders of the
    nodes it declares uncertain -- one scan, so both are bit-identical by
    construction.
    """
    best: tuple[int, float, float] | None = None
    for f in feats:
        order = orders[f]
        found = _scan_sorted(
            columns[f][order], y[order], total_pos, min_samples_leaf,
            min_gain, parent_entropy,
        )
        if found is not None and (best is None or found[1] > best[2]):
            best = (int(f), found[0], found[1])
    return best


# -- compiled fit kernel -------------------------------------------------

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Fills the candidate-feature buffer for the next expandable node and
 * returns how many it wrote; -1 when the Python side raised. */
typedef int32_t (*repro_candidates_fn)(void);
/* Reference re-search of an uncertain node over its presorted segment
 * [start, start + m): 1 = split found (written), 0 = none, -1 = raised. */
typedef int32_t (*repro_research_fn)(int64_t start, int64_t m, int32_t n_feat,
                                     int64_t pos, int32_t *feature,
                                     double *threshold);

#define REPRO_FIT_CALLBACK_ERROR (-1)
#define REPRO_FIT_CAPACITY (-2)

/* Split search over one node's presorted per-feature segments.
 *
 * Candidates are scored on S = -(sum of k*ln(k) terms), an affine
 * transform of the reference information gain with positive scale, via
 * the caller-precomputed xlogx table (xlogx[k] = k*ln(k), xlogx[0]=0).
 * Selection mirrors the reference scan: first-wins argmax per feature
 * order, strict > across candidates.  Exact S ties are kept only when
 * the candidate's count partition equals or mirrors the incumbent's
 * (those are exact ties in any IEEE implementation); any other rival
 * within margin * m makes the node "uncertain" and the caller
 * re-searches it with the reference scan.
 *
 * Returns 1 = split found, 0 = no admissible split, -1 = uncertain.
 */
static int best_split(
    const double *xcols, const double *y, int64_t g,
    const int32_t *orders, int64_t start, int64_t m,
    const int32_t *feat, int32_t n_feat,
    int64_t min_samples_leaf, int64_t total_pos,
    double min_gain, double margin, const double *xlogx,
    int32_t *out_feature, double *out_threshold)
{
    double s_best = -INFINITY, s_second = -INFINITY;
    double thr_best = 0.0;
    int32_t f_best = -1;
    int64_t L_best = 0, lp_best = 0;
    /* gain <= min_gain  <=>  S <= -m * (parent_entropy - min_gain) */
    const double parent = xlogx[m] - xlogx[total_pos] - xlogx[m - total_pos];
    const double s_mingain = -(parent - (double)m * min_gain);
    const double tol = margin * (double)m;

    for (int32_t fi = 0; fi < n_feat; fi++) {
        const int64_t f = (int64_t)feat[fi];
        const int32_t *ord = orders + f * g + start;
        const double *x = xcols + f * g;
        if (x[ord[0]] == x[ord[m - 1]]) continue;  /* constant feature */
        double cum = 0.0;
        for (int64_t i = 0; i + 1 < m; i++) {
            const int32_t r = ord[i];
            cum += y[r];
            const double xi = x[r], xn = x[ord[i + 1]];
            if (!(xi < xn)) continue;
            const int64_t L = i + 1, R = m - L;
            if (L < min_samples_leaf || R < min_samples_leaf) continue;
            const int64_t lp = (int64_t)cum;
            const int64_t ln_ = L - lp;
            const int64_t rp = total_pos - lp;
            const int64_t rn = R - rp;
            const double s = -((xlogx[L] - xlogx[lp] - xlogx[ln_])
                             + (xlogx[R] - xlogx[rp] - xlogx[rn]));
            if (s > s_best) {
                if (s_best > s_second) s_second = s_best;
                s_best = s;
                f_best = (int32_t)f;
                L_best = L;
                lp_best = lp;
                thr_best = (xi + xn) / 2.0;
            } else if (s == s_best && f_best >= 0) {
                const int same = (L == L_best && lp == lp_best);
                const int mirror = (L == m - L_best && lp == total_pos - lp_best);
                if (!same && !mirror) s_second = s;  /* suspicious exact tie */
            } else if (s > s_second) {
                s_second = s;
            }
        }
    }
    if (f_best < 0) return 0;
    if (s_best <= s_mingain)
        return (s_mingain - s_best < tol) ? -1 : 0;
    if (s_best - s_mingain < tol) return -1;
    if (s_best - s_second < tol) return -1;
    *out_feature = f_best;
    *out_threshold = thr_best;
    return 1;
}

/* Adds each listed row's label to the counts of every node on its path. */
static void route(
    const double *xrows, const double *y, int32_t n_feat_total,
    const int64_t *rows, int64_t n_rows,  /* 0: rows 0 .. n_rows - 1 */
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    int64_t *pos, int64_t *neg)
{
    for (int64_t k = 0; k < n_rows; k++) {
        const int64_t r = rows ? rows[k] : k;
        const double *x = xrows + r * n_feat_total;
        const int positive = y[r] != 0.0;
        int32_t v = 0;
        for (;;) {
            if (positive) pos[v]++; else neg[v]++;
            if (left[v] < 0) break;
            v = (x[feature[v]] <= threshold[v]) ? left[v] : right[v];
        }
    }
}

/* Fits one tree: grow on the presorted grow rows, route the pruning
 * fold and prune (when `prune`), count every row into the nodes it
 * reaches and write the frozen tree -- pre-order, left subtree first --
 * into the caller's `capacity`-long output arrays.
 *
 * Nodes are expanded from a LIFO stack, left child pushed first.  Each
 * node owns the segment [start, start + m) of every feature's order
 * array (rows sorted stably by that feature); a split stably partitions
 * the node's segments in place, left rows first, so each child's
 * segment is exactly the stable argsort of its subset.
 *
 * Returns the frozen node count, REPRO_FIT_CALLBACK_ERROR (a Python
 * callback raised) or REPRO_FIT_CAPACITY (more than `capacity` nodes;
 * possible only when a midpoint threshold rounds onto a sample value and
 * a split leaves one child empty).  The caller owns every buffer.
 */
int64_t repro_fit_tree(
    const double *xrows,    /* (n, n_feat_total) every row, row-major */
    const double *y,        /* (n,) 0/1 labels of every row */
    int64_t n, int32_t n_feat_total,
    const double *xcols,    /* (n_feat_total, g) grow rows, by column */
    const double *yg,       /* (g,) grow labels */
    int64_t g, int64_t g_pos,  /* grow rows and how many are positive */
    int32_t *orders,        /* (n_feat_total, g) presort; partitioned in place */
    const int64_t *fold, int64_t n_fold, int32_t prune,
    int32_t *feats,         /* (n_feat_total,) candidate features */
    repro_candidates_fn candidates,  /* NULL: feats holds every feature */
    repro_research_fn research,
    int64_t max_depth, int64_t min_samples_leaf,
    double min_gain, double margin,
    const double *xlogx,    /* (g + 1,) */
    int64_t capacity,
    int64_t *out_feature, double *out_threshold,
    int64_t *out_left, int64_t *out_right,
    double *out_pos, double *out_neg,
    int64_t *stats,         /* out: nodes popped, splits, re-searches */
    int64_t *i64,           /* workspace: (9, capacity), zeroed */
    int32_t *i32,           /* workspace: 6 * capacity + 2 * g */
    double *thr)            /* workspace: (capacity,) */
{
    const int64_t c = capacity;
    int64_t ret = REPRO_FIT_CAPACITY;
    int64_t nodes = 0, splits = 0, fallbacks = 0;
    int64_t *start = i64, *size = i64 + c, *gpos = i64 + 2 * c;
    int64_t *depth = i64 + 3 * c, *ppos = i64 + 4 * c, *pneg = i64 + 5 * c;
    int64_t *tpos = i64 + 6 * c, *tneg = i64 + 7 * c, *err = i64 + 8 * c;
    int32_t *feature = i32, *left = i32 + c, *right = i32 + 2 * c;
    int32_t *stack = i32 + 3 * c, *index = i32 + 4 * c, *order = i32 + 5 * c;
    int32_t *tmp = i32 + 6 * c, *goes_left = i32 + 6 * c + g;

    start[0] = 0; size[0] = g; gpos[0] = g_pos; depth[0] = 0;
    feature[0] = -1; left[0] = right[0] = -1; thr[0] = 0.0;
    int64_t n_nodes = 1, sp = 0;
    stack[sp++] = 0;
    int32_t n_feat = n_feat_total;

    while (sp > 0) {
        const int32_t v = stack[--sp];
        nodes++;
        const int64_t m = size[v], pos = gpos[v], s = start[v];
        if (m < 2 * min_samples_leaf || pos == 0 || pos == m
            || depth[v] >= max_depth)
            continue;
        if (candidates) {
            n_feat = candidates();
            if (n_feat < 0) { ret = REPRO_FIT_CALLBACK_ERROR; goto done; }
        }
        int32_t f = -1;
        double t = 0.0;
        int status = best_split(xcols, yg, g, orders, s, m, feats, n_feat,
                                min_samples_leaf, pos, min_gain, margin,
                                xlogx, &f, &t);
        if (status < 0) {  /* uncertain: margin inside the guard band */
            fallbacks++;
            status = research(s, m, n_feat, pos, &f, &t);
            if (status < 0) { ret = REPRO_FIT_CALLBACK_ERROR; goto done; }
        }
        if (status == 0) continue;
        if (n_nodes + 2 > c) goto done;

        const double *xs = xcols + (int64_t)f * g;
        const int32_t *split_seg = orders + (int64_t)f * g + s;
        int64_t m_left = 0, pos_left = 0;
        for (int64_t i = 0; i < m; i++) {
            const int32_t r = split_seg[i];
            const int32_t is_left = xs[r] <= t;
            goes_left[r] = is_left;
            m_left += is_left;
            pos_left += is_left && yg[r] != 0.0;
        }
        for (int32_t h = 0; h < n_feat_total; h++) {
            int32_t *seg = orders + (int64_t)h * g + s;
            int64_t li = 0, ri = 0;
            for (int64_t i = 0; i < m; i++) {
                const int32_t r = seg[i];
                if (goes_left[r]) seg[li++] = r; else tmp[ri++] = r;
            }
            for (int64_t i = 0; i < ri; i++) seg[li + i] = tmp[i];
        }
        splits++;
        const int32_t lc = (int32_t)n_nodes, rc = (int32_t)(n_nodes + 1);
        n_nodes += 2;
        feature[v] = f; thr[v] = t; left[v] = lc; right[v] = rc;
        start[lc] = s; size[lc] = m_left; gpos[lc] = pos_left;
        start[rc] = s + m_left; size[rc] = m - m_left; gpos[rc] = pos - pos_left;
        depth[lc] = depth[rc] = depth[v] + 1;
        feature[lc] = feature[rc] = -1;
        left[lc] = right[lc] = left[rc] = right[rc] = -1;
        thr[lc] = thr[rc] = 0.0;
        stack[sp++] = lc;
        stack[sp++] = rc;
    }

    if (prune) {
        route(xrows, y, n_feat_total, fold, n_fold, feature, thr, left, right,
              ppos, pneg);
        /* Bottom-up reduced-error pruning: children precede parents in
         * reverse creation order.  A collapsed node keeps its threshold. */
        for (int64_t v = n_nodes - 1; v >= 0; v--) {
            const int majority_positive = gpos[v] >= size[v] - gpos[v];
            const int64_t leaf_err = majority_positive ? pneg[v] : ppos[v];
            if (left[v] < 0) { err[v] = leaf_err; continue; }
            const int64_t children_err = err[left[v]] + err[right[v]];
            if (leaf_err <= children_err) {
                feature[v] = -1; left[v] = right[v] = -1;
                err[v] = leaf_err;
            } else {
                err[v] = children_err;
            }
        }
    }
    route(xrows, y, n_feat_total, 0, n, feature, thr, left, right,
          tpos, tneg);

    /* Freeze: pre-order, left subtree first; pruned nodes drop. */
    int64_t k = 0;
    sp = 0;
    stack[sp++] = 0;
    while (sp > 0) {
        const int32_t v = stack[--sp];
        order[k] = v;
        index[v] = (int32_t)k++;
        if (left[v] >= 0) { stack[sp++] = right[v]; stack[sp++] = left[v]; }
    }
    for (int64_t j = 0; j < k; j++) {
        const int32_t v = order[j];
        out_feature[j] = feature[v];
        out_threshold[j] = thr[v];
        out_left[j] = left[v] >= 0 ? index[left[v]] : -1;
        out_right[j] = right[v] >= 0 ? index[right[v]] : -1;
        out_pos[j] = (double)tpos[v];
        out_neg[j] = (double)tneg[v];
    }
    ret = k;

done:
    stats[0] = nodes; stats[1] = splits; stats[2] = fallbacks;
    return ret;
}
"""

_CALLBACK_ERROR, _CAPACITY = -1, -2

_CANDIDATES_FN = ctypes.CFUNCTYPE(ctypes.c_int32)
_RESEARCH_FN = ctypes.CFUNCTYPE(
    ctypes.c_int32,
    ctypes.c_int64,
    ctypes.c_int64,
    ctypes.c_int32,
    ctypes.c_int64,
    ctypes.POINTER(ctypes.c_int32),
    ctypes.POINTER(ctypes.c_double),
)


def _compile_kernel() -> "ctypes.CDLL | None":
    """Compile and load the C kernel; ``None`` when unavailable."""
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    f64 = ctypes.c_double
    return build_kernel(
        "fit",
        _KERNEL_SOURCE,
        {
            "repro_fit_tree": (
                [
                    ptr, ptr, i64, i32,  # every row
                    ptr, ptr, i64, i64, ptr,  # grow rows and their presort
                    ptr, i64, i32,  # pruning fold
                    ptr, _CANDIDATES_FN, _RESEARCH_FN,
                    i64, i64, f64, f64, ptr,  # growth limits, margin, xlogx
                    i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,  # outputs
                    ptr, ptr, ptr,  # workspace
                ],
                i64,
            ),
        },
    )


def _get_kernel() -> "ctypes.CDLL | None":
    """The process-wide compiled kernel (built on first use)."""
    return load_once("fit", _compile_kernel)


def has_ckernel() -> bool:
    """Whether the compiled C fit kernel is available."""
    return _get_kernel() is not None


def active_engine() -> str:
    """``c`` when the kernel is available, else ``numpy``."""
    return "c" if has_ckernel() else "numpy"


#: dtypes of the frozen ``(feature, threshold, left, right, pos, neg)``.
_FROZEN_DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64, np.float64)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Callable[[int], np.ndarray] | None,
    max_depth: int | None,
    min_samples_leaf: int,
    min_gain: float,
    folds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """Fit one tree in a single call of the C kernel.

    With ``folds = (grow_rows, prune_rows)`` the tree grows on
    ``grow_rows`` and is reduced-error pruned against ``prune_rows``;
    with ``None`` it grows on every row, unpruned.  Either way every
    row's label is then counted into the nodes it reaches.  The result
    equals the reference pipeline ``_grow_reference`` -> ``_route`` ->
    ``_prune`` -> ``_route`` -> ``_freeze`` of
    :class:`repro.ml.tree.DecisionTreeBase` array for array.

    ``candidate_features`` is consulted once per expandable node, in the
    reference grower's pop order (which keeps RandomTree's RNG stream
    identical); ``None`` examines every feature in order without calling
    back into Python.  Nodes whose split margin falls inside
    :data:`UNCERTAIN_GAIN_MARGIN` (read at call time) are re-searched by
    :func:`_search_sorted`.  An exception raised by either callback
    aborts the fit and is re-raised here.

    Returns the frozen ``(feature, threshold, left, right, pos, neg)``
    arrays plus ``{"nodes", "splits", "fallbacks"}`` counters, where
    ``fallbacks`` counts the re-searched nodes.  Raises ``RuntimeError`` without a
    kernel.
    """
    lib = _get_kernel()
    if lib is None:
        raise RuntimeError("compiled fit kernel unavailable")
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n, n_features = X.shape
    if folds is None:
        grow_X, grow_y = X, y
        prune_rows = np.zeros(0, dtype=np.int64)
    else:
        grow_X, grow_y = X[folds[0]], y[folds[0]]
        prune_rows = np.ascontiguousarray(folds[1], dtype=np.int64)
        if ((prune_rows < 0) | (prune_rows >= n)).any():
            raise IndexError(f"pruning rows outside range({n})")
    g = len(grow_y)
    cols = np.ascontiguousarray(grow_X.T)
    k = np.arange(g + 1, dtype=np.float64)
    xlogx = k * np.log(np.maximum(k, 1.0))
    feats = np.arange(n_features, dtype=np.int32)
    stats = np.zeros(3, dtype=np.int64)
    errors: list[BaseException] = []
    # Candidate sets already drawn, replayed when a fit is retried with
    # more node capacity so the callback's RNG stream advances once.
    drawn: list[np.ndarray] = []
    calls = 0

    def candidates() -> int:
        nonlocal calls
        try:
            if calls == len(drawn):
                chosen = np.asarray(candidate_features(n_features)).ravel()
                if len(chosen) > n_features or (
                    (chosen < 0) | (chosen >= n_features)
                ).any():
                    raise ValueError(
                        f"candidate features {chosen!r} are not a subset of "
                        f"range({n_features})"
                    )
                drawn.append(chosen)
            chosen = drawn[calls]
            calls += 1
            feats[: len(chosen)] = chosen
            return len(chosen)
        except BaseException as error:  # re-raised after the kernel returns
            errors.append(error)
            return _CALLBACK_ERROR

    def research(start, m, n_feat, pos, out_feature, out_threshold) -> int:
        try:
            found = _search_sorted(
                cols, grow_y, orders[:, start : start + m], feats[:n_feat],
                min_samples_leaf, min_gain,
                _entropy_scalar(float(pos), float(m - pos)), float(pos),
            )
            if found is None:
                return 0
            out_feature[0], out_threshold[0] = found[0], found[1]
            return 1
        except BaseException as error:
            errors.append(error)
            return _CALLBACK_ERROR

    candidates_fn = (  # a bare prototype instance is a NULL pointer
        _CANDIDATES_FN() if candidate_features is None else _CANDIDATES_FN(candidates)
    )
    research_fn = _RESEARCH_FN(research)
    capacity = max(2 * g - 1, 1)
    while True:
        orders = np.argsort(cols, axis=1, kind="stable").astype(np.int32)
        out = [np.empty(capacity, dtype=dtype) for dtype in _FROZEN_DTYPES]
        workspace = (
            np.zeros(9 * capacity, dtype=np.int64),
            np.empty(6 * capacity + 2 * g, dtype=np.int32),
            np.empty(capacity, dtype=np.float64),
        )
        calls = 0
        count = lib.repro_fit_tree(
            X.ctypes.data, y.ctypes.data, n, n_features,
            cols.ctypes.data, grow_y.ctypes.data, g, int(grow_y.sum()),
            orders.ctypes.data,
            prune_rows.ctypes.data, len(prune_rows), folds is not None,
            feats.ctypes.data, candidates_fn, research_fn,
            np.iinfo(np.int64).max if max_depth is None else max_depth,
            min_samples_leaf, min_gain, UNCERTAIN_GAIN_MARGIN,
            xlogx.ctypes.data, capacity,
            *(array.ctypes.data for array in out), stats.ctypes.data,
            *(array.ctypes.data for array in workspace),
        )
        if count != _CAPACITY:
            break
        capacity *= 2
    if count == _CALLBACK_ERROR:
        raise errors[0]
    frozen = tuple(array[:count].copy() for array in out)
    nodes, splits, fallbacks = (int(v) for v in stats)
    return frozen, {"nodes": nodes, "splits": splits, "fallbacks": fallbacks}
