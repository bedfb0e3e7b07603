"""The 11 pair features of Section III-B, computed vectorized.

Each candidate is a *pair* of v-pins ``(v1, v2)``; every feature is
symmetric in the pair (absolute differences and sums), so sample order
never matters.  Feature sets:

* ``FEATURES_11`` -- all features (configuration ``Imp-11``);
* ``FEATURES_9``  -- without the two congestion features
  (configurations ``ML-9``/``Imp-9``, the paper's "first 9 features");
* ``FEATURES_7``  -- additionally without the two least important
  features, ``TotalWirelength`` and ``TotalArea`` (configuration
  ``Imp-7``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .split import SplitView

FEATURES_11: tuple[str, ...] = (
    "DiffPinX",
    "DiffPinY",
    "ManhattanPin",
    "DiffVpinX",
    "DiffVpinY",
    "ManhattanVpin",
    "TotalWirelength",
    "TotalArea",
    "DiffArea",
    "PlacementCongestion",
    "RoutingCongestion",
)

FEATURES_9: tuple[str, ...] = FEATURES_11[:9]

FEATURES_7: tuple[str, ...] = (
    "DiffPinX",
    "DiffPinY",
    "ManhattanPin",
    "DiffVpinX",
    "DiffVpinY",
    "ManhattanVpin",
    "DiffArea",
)

FEATURE_SETS: dict[int, tuple[str, ...]] = {
    7: FEATURES_7,
    9: FEATURES_9,
    11: FEATURES_11,
}


def compute_pair_features(
    view: SplitView | Mapping[str, np.ndarray],
    i: np.ndarray,
    j: np.ndarray,
    features: tuple[str, ...] = FEATURES_11,
) -> np.ndarray:
    """Feature matrix for the pairs ``(i[k], j[k])``, shape ``(len(i), F)``.

    Implements the definitions of Section III-B exactly; in particular
    ``DiffArea`` is the driver-minus-load area difference
    ``(OutArea1 + OutArea2) - (InArea1 + InArea2)``.  ``view`` is a
    :class:`SplitView` or a mapping of its base columns (what pool
    workers get out of shared memory).
    """
    arr = view.arrays() if hasattr(view, "arrays") else view
    columns: dict[str, np.ndarray] = {}
    need = set(features)

    def want(name: str) -> bool:
        return name in need

    if want("DiffPinX") or want("ManhattanPin"):
        diff_pin_x = np.abs(arr["px"][i] - arr["px"][j])
        columns["DiffPinX"] = diff_pin_x
    if want("DiffPinY") or want("ManhattanPin"):
        diff_pin_y = np.abs(arr["py"][i] - arr["py"][j])
        columns["DiffPinY"] = diff_pin_y
    if want("ManhattanPin"):
        columns["ManhattanPin"] = columns["DiffPinX"] + columns["DiffPinY"]
    if want("DiffVpinX") or want("ManhattanVpin"):
        diff_vpin_x = np.abs(arr["vx"][i] - arr["vx"][j])
        columns["DiffVpinX"] = diff_vpin_x
    if want("DiffVpinY") or want("ManhattanVpin"):
        diff_vpin_y = np.abs(arr["vy"][i] - arr["vy"][j])
        columns["DiffVpinY"] = diff_vpin_y
    if want("ManhattanVpin"):
        columns["ManhattanVpin"] = columns["DiffVpinX"] + columns["DiffVpinY"]
    if want("TotalWirelength"):
        columns["TotalWirelength"] = arr["w"][i] + arr["w"][j]
    if want("TotalArea"):
        columns["TotalArea"] = (
            arr["in_area"][i]
            + arr["in_area"][j]
            + arr["out_area"][i]
            + arr["out_area"][j]
        )
    if want("DiffArea"):
        columns["DiffArea"] = (arr["out_area"][i] + arr["out_area"][j]) - (
            arr["in_area"][i] + arr["in_area"][j]
        )
    if want("PlacementCongestion"):
        columns["PlacementCongestion"] = arr["pc"][i] + arr["pc"][j]
    if want("RoutingCongestion"):
        columns["RoutingCongestion"] = arr["rc"][i] + arr["rc"][j]

    return np.column_stack([columns[name] for name in features])


def legal_pair_mask(view: SplitView, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Paper legality rule: a pair with two driver-side v-pins is illegal.

    (Two output pins can never belong to the same net, footnote 1/2.)
    """
    out = view.arrays()["out_area"]
    return ~((out[i] > 0.0) & (out[j] > 0.0))


def manhattan_vpin(view: SplitView, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Manhattan distance between v-pins of each pair."""
    arr = view.arrays()
    return np.abs(arr["vx"][i] - arr["vx"][j]) + np.abs(arr["vy"][i] - arr["vy"][j])
