"""Analog-hardware cost model: β-bit threshold quantization plus a
calibrated per-node power/area table and a per-level latency.

The calibration defaults are anchored to three published measurements of
a memristor comparator-tree prototype: 0.97 mW for a 35-node tree at
β ≤ 5, a 4× power step by β = 11 (3.88 mW), and per-sample latency around
4e-5 s for a 15-node tree. Everything else is interpolated and clearly an
estimate; supply a JSON calibration file to override.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import nn_core
from .tree_distiller import DecisionTree, tree_from_dict, tree_to_dict

BETA_MIN = 1
BETA_MAX = 16

# measured anchors: 35 nodes at beta<=5 draw 0.97 mW; 4x that by beta=11
_POWER_BASE_MW = 0.97 / 35.0
_POWER_SLOPE = _POWER_BASE_MW * (4.0 - 1.0) / (11 - 5)
_LATENCY_PER_LEVEL_S = 1e-5


def _default_power(beta: int) -> float:
    if beta <= 5:
        return _POWER_BASE_MW
    return _POWER_BASE_MW + (beta - 5) * _POWER_SLOPE


def _default_area(beta: int) -> float:
    # near-flat: one 5-bit node is the unit; +-10% across the sweep
    return min(0.95 + 0.01 * beta, 1.10)


@dataclass
class CostCalibration:
    power_mw_per_node: dict[int, float]
    area_per_node: dict[int, float]
    latency_per_level_s: float

    def __post_init__(self):
        betas = list(range(BETA_MIN, BETA_MAX + 1))
        for name, table in (("power_mw_per_node", self.power_mw_per_node),
                            ("area_per_node", self.area_per_node)):
            missing = [b for b in betas if b not in table]
            if missing:
                raise ValueError(f"{name} missing beta values {missing}")
            vals = [table[b] for b in betas]
            if any(v < 0 for v in vals):
                raise ValueError(f"{name} has negative entries")
            if any(later < earlier for earlier, later in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be non-decreasing in beta")
        if self.latency_per_level_s <= 0:
            raise ValueError("latency_per_level_s must be positive")


def default_calibration() -> CostCalibration:
    return CostCalibration(
        power_mw_per_node={b: _default_power(b) for b in range(BETA_MIN, BETA_MAX + 1)},
        area_per_node={b: _default_area(b) for b in range(BETA_MIN, BETA_MAX + 1)},
        latency_per_level_s=_LATENCY_PER_LEVEL_S,
    )


def calibration_to_dict(calib: CostCalibration) -> dict:
    return {
        "power_mw_per_node": {str(b): v for b, v in sorted(calib.power_mw_per_node.items())},
        "area_per_node": {str(b): v for b, v in sorted(calib.area_per_node.items())},
        "latency_per_level_s": calib.latency_per_level_s,
    }


def load_calibration(path: str | None = None) -> CostCalibration:
    """Read a JSON calibration (calibration_to_dict's layout) or the defaults."""
    if path is None:
        return default_calibration()
    with open(path) as fh, nn_core.file_errors(path, "calibration"):
        doc = json.load(fh)
        return CostCalibration(
            power_mw_per_node={int(b): float(v) for b, v in doc["power_mw_per_node"].items()},
            area_per_node={int(b): float(v) for b, v in doc["area_per_node"].items()},
            latency_per_level_s=float(doc["latency_per_level_s"]),
        )


@dataclass
class QuantizedTree:
    tree: DecisionTree                      # thresholds already snapped
    beta: int
    ranges: dict[int, tuple[float, float]]  # feature -> (lo, hi)
    level: list[int]                        # per node: snapped level, -1 at leaves

    @property
    def n_nodes(self) -> int:
        return self.tree.n_nodes

    @property
    def class_names(self) -> list[str]:
        return self.tree.class_names

    def predict_label(self, values: np.ndarray) -> str:
        return self.tree.predict_label(values)


@dataclass
class HardwareCost:
    power_mw: float
    area_units: float
    inference_time_s: float
    n_nodes: int
    beta: int

    def __post_init__(self):
        if min(self.power_mw, self.area_units, self.inference_time_s) < 0:
            raise ValueError("costs must be nonnegative")


@dataclass
class ResourceBudget:
    max_power_mw: float | None = None
    max_area_units: float | None = None
    max_latency_s: float | None = None


def fit_quantization_ranges(tree: DecisionTree, x: np.ndarray) -> dict[int, tuple[float, float]]:
    """Observed (min, max) per split feature; a constant feature widens
    by +-0.5 so the level grid stays well-defined."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("empty range-fitting batch")
    ranges = {}
    for f in dict.fromkeys(f for f in tree.feature if f >= 0):
        lo, hi = float(np.min(x[:, f])), float(np.max(x[:, f]))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        ranges[f] = (lo, hi)
    return ranges


def quantize_tree(tree: DecisionTree, beta: int,
                  ranges: dict[int, tuple[float, float]]) -> QuantizedTree:
    """Snap every split threshold to the nearest of 2^beta uniform levels
    over its feature's range (midway ties snap up), in one vectorized step
    over the threshold column. Topology, features, leaf classes and the
    collapse_alpha column are untouched: the quantized tree shares every
    column but threshold with the input."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    n_levels = 2 ** beta
    feature = np.asarray(tree.feature)
    internal = np.flatnonzero(feature >= 0)
    split_features = feature[internal].tolist()
    for f in dict.fromkeys(split_features):
        if f not in ranges:
            raise ValueError(f"no quantization range for feature {f}")
        lo, hi = ranges[f]
        if not hi > lo:
            raise ValueError(f"bad range for feature {f}: ({lo}, {hi})")
    lo = np.array([ranges[f][0] for f in split_features], dtype=np.float64)
    hi = np.array([ranges[f][1] for f in split_features], dtype=np.float64)
    step = (hi - lo) / (n_levels - 1)
    threshold = np.array(tree.threshold, dtype=np.float64)
    j = np.clip(np.floor((threshold[internal] - lo) / step + 0.5), 0, n_levels - 1)
    threshold[internal] = lo + j * step
    level = np.full(feature.shape[0], -1, dtype=np.int64)
    level[internal] = j
    return QuantizedTree(tree=replace(tree, threshold=threshold.tolist()),
                         beta=beta, ranges=dict(ranges), level=level.tolist())


def cost_estimate(qtree: QuantizedTree, calib: CostCalibration) -> HardwareCost:
    return shape_cost(qtree.n_nodes, qtree.tree.max_depth, qtree.beta, calib)


def shape_cost(n_nodes: int, max_depth: int, beta: int, calib: CostCalibration) -> HardwareCost:
    """The cost of a tree of this shape at beta bits: power/area scale
    with node count; latency with the deepest path."""
    if beta not in calib.power_mw_per_node or beta not in calib.area_per_node:
        raise ValueError(f"calibration does not cover beta={beta}")
    return HardwareCost(
        power_mw=n_nodes * calib.power_mw_per_node[beta],
        area_units=n_nodes * calib.area_per_node[beta],
        inference_time_s=max_depth * calib.latency_per_level_s,
        n_nodes=n_nodes,
        beta=beta,
    )


def check_constraint(cost: HardwareCost, budget: ResourceBudget) -> tuple[bool, list[str]]:
    """Inclusive comparison against every specified budget field."""
    violated = []
    if budget.max_power_mw is not None and cost.power_mw > budget.max_power_mw:
        violated.append("power")
    if budget.max_area_units is not None and cost.area_units > budget.max_area_units:
        violated.append("area")
    if budget.max_latency_s is not None and cost.inference_time_s > budget.max_latency_s:
        violated.append("latency")
    return (not violated, violated)


def qtree_to_dict(qtree: QuantizedTree) -> dict:
    return {
        "beta": qtree.beta,
        "ranges": {str(f): [lo, hi] for f, (lo, hi) in sorted(qtree.ranges.items())},
        "level": list(qtree.level),
        "tree": tree_to_dict(qtree.tree),
    }


def load_qtree(path: str) -> QuantizedTree:
    with open(path) as fh, nn_core.file_errors(path, "quantized tree"):
        doc = json.load(fh)
        return QuantizedTree(
            tree=tree_from_dict(doc["tree"]),
            beta=doc["beta"],
            ranges={int(f): (float(v[0]), float(v[1])) for f, v in doc["ranges"].items()},
            level=[int(j) for j in doc["level"]],
        )
