"""Global matching attack: a scalable analogue of the network-flow attack.

The paper (Section II-B) notes that flow-based matching attacks [13] are
infeasible at industrial scale because they consider all candidate pairs
simultaneously, and that its ML framework could be *combined* with such
techniques.  This module implements that combination: the ML classifier's
pair probabilities define a sparse bipartite-ish graph, and a maximum-
weight one-to-one assignment picks a globally consistent set of
connections, instead of the proximity attack's independent per-v-pin
choices.

Because the ML stage (especially the Imp neighborhoods) already prunes
the pair set to a sparse graph, the assignment runs on thousands of
v-pins in well under a second -- exactly the scalability argument the
paper makes for ML-first pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .result import AttackResult


@dataclass(frozen=True)
class MatchingOutcome:
    """Result of the global matching attack on one design."""

    design_name: str
    config_name: str
    n_vpins: int
    n_assigned: int
    n_correct: int

    @property
    def success_rate(self) -> float:
        """Fraction of v-pins whose assigned partner is a true match."""
        if self.n_vpins == 0:
            return 0.0
        return self.n_correct / self.n_vpins


def _greedy_assignment(
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    weight: np.ndarray,
) -> dict[int, int]:
    """Greedy maximum-weight matching: scan pairs by descending weight.

    Greedy matching is a 1/2-approximation of the maximum-weight matching
    and runs in O(m log m) -- the scalable choice for the large, lower
    split layers (a v-pin graph is a general graph, not bipartite, so the
    Hungarian algorithm does not directly apply).  Equal weights are
    scanned in ascending ``(i, j)`` order, so the matching is a function
    of the pair set alone, not of its array order.
    """
    order = np.lexsort((pair_j, pair_i, -weight))
    assigned: dict[int, int] = {}
    for k in order:
        a, b = int(pair_i[k]), int(pair_j[k])
        if a in assigned or b in assigned:
            continue
        assigned[a] = b
        assigned[b] = a
    return assigned


def global_matching_attack(
    result: AttackResult,
    min_probability: float = 0.5,
) -> MatchingOutcome:
    """Assign every v-pin at most one partner, maximizing total probability.

    Only pairs with probability >= ``min_probability`` participate (the
    classifier's LoC), mirroring how [13]-style attacks would consume the
    ML stage's output.
    """
    keep = result.prob >= min_probability
    assigned = _greedy_assignment(
        result.pair_i[keep], result.pair_j[keep], result.prob[keep]
    )
    n_correct = 0
    for vpin in result.view.vpins:
        partner = assigned.get(vpin.id)
        if partner is not None and partner in vpin.matches:
            n_correct += 1
    return MatchingOutcome(
        design_name=result.view.design_name,
        config_name=result.config_name,
        n_vpins=result.n_vpins,
        n_assigned=len(assigned),
        n_correct=n_correct,
    )


def distance_weighted_matching_attack(
    result: AttackResult,
    min_probability: float = 0.3,
    distance_scale: float = 0.05,
) -> MatchingOutcome:
    """Matching on probability x proximity, combining both attack signals.

    The weight of a pair is ``p * exp(-d / (distance_scale * HP))`` --
    the classifier's belief discounted by normalized Manhattan distance,
    a direct fusion of the ML attack with the classic proximity prior.
    """
    view = result.view
    keep = result.prob >= min_probability
    pair_i = result.pair_i[keep]
    pair_j = result.pair_j[keep]
    arr = view.arrays()
    distance = np.abs(arr["vx"][pair_i] - arr["vx"][pair_j]) + np.abs(
        arr["vy"][pair_i] - arr["vy"][pair_j]
    )
    weight = result.prob[keep] * np.exp(
        -distance / max(distance_scale * view.half_perimeter, 1e-9)
    )
    assigned = _greedy_assignment(pair_i, pair_j, weight)
    n_correct = 0
    for vpin in view.vpins:
        partner = assigned.get(vpin.id)
        if partner is not None and partner in vpin.matches:
            n_correct += 1
    return MatchingOutcome(
        design_name=view.design_name,
        config_name=f"{result.config_name}+match",
        n_vpins=result.n_vpins,
        n_assigned=len(assigned),
        n_correct=n_correct,
    )


def connected_component_sizes(result: AttackResult, threshold: float = 0.5) -> np.ndarray:
    """Sizes of the LoC graph's connected components.

    A diagnostic for how "entangled" the classifier's candidate graph is:
    the [13]-style flow formulations blow up on large components, which is
    the paper's infeasibility argument quantified.
    """
    keep = result.prob >= threshold
    n = result.n_vpins
    if n == 0 or not keep.any():
        return np.zeros(0, dtype=int)
    graph = sp.coo_matrix(
        (
            np.ones(int(keep.sum())),
            (result.pair_i[keep], result.pair_j[keep]),
        ),
        shape=(n, n),
    )
    n_components, labels = csgraph.connected_components(graph, directed=False)
    return np.bincount(labels, minlength=n_components)
