"""Joint software-hardware configuration search over (alpha, beta).

Phase 1 sweeps the full alpha x beta grid; phase 2 refines beta by an
integer-adapted bisection at the winning alpha. Every (alpha, beta)
evaluation is cached, so the bisection revisiting grid points is free.
Selection is accuracy-first among feasible configs, breaking ties toward
cheaper hardware (smaller beta, then larger alpha / smaller tree).
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import hw_model, nn_core, tree_distiller
from .classifier import metrics_from_predictions
from .hw_model import CostCalibration, HardwareCost, ResourceBudget
from .tree_distiller import DecisionTree

DEFAULT_BETA_RANGE = (1, 11)


class NoFeasibleConfigError(ValueError):
    pass


@dataclass
class JshcConfig:
    alpha_set: list[float] | None = None   # None -> the tree's own collapse alphas
    beta_set: list[int] | None = None      # None -> min_beta..max_beta
    min_beta: int = DEFAULT_BETA_RANGE[0]
    max_beta: int = DEFAULT_BETA_RANGE[1]
    z_max: ResourceBudget = field(default_factory=ResourceBudget)

    def __post_init__(self):
        if self.min_beta > self.max_beta:
            raise ValueError("min_beta must not exceed max_beta")
        if self.min_beta < 1:
            raise ValueError("beta starts at 1 bit")
        if self.alpha_set is not None:
            if not self.alpha_set:
                raise ValueError("alpha_set must be non-empty")
            if any(a < 0 for a in self.alpha_set):
                raise ValueError("alphas must be nonnegative")


@dataclass
class ConfigEval:
    alpha: float
    beta: int
    accuracy: float
    f1: float
    cost: HardwareCost
    feasible: bool
    n_nodes: int


@dataclass
class BisectStep:
    left: int
    right: int
    mid: int
    accuracy: float
    feasible: bool


@dataclass
class JshcResult:
    best_alpha: float
    best_beta: int
    best_accuracy: float
    best: ConfigEval
    sweep_log: list[ConfigEval]
    bisection_trace: list[BisectStep]


@dataclass
class JshcArtifacts:
    """Everything an (alpha, beta) evaluation needs: the distilled tree,
    its quantization ranges and the scored split, with lazy caching of the
    walks at each beta and of every evaluated cell."""
    eval_x: np.ndarray
    eval_y: np.ndarray           # ground-truth labels for scoring
    calib: CostCalibration
    tree: DecisionTree = field(repr=False)
    quant_ranges: dict = field(repr=False)
    _walks: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def walk(self, beta: int) -> np.ndarray:
        """The eval rows' walks through the tree quantized at beta: pruning
        and quantizing commute, so every alpha reads its labels off them."""
        if beta not in self._walks:
            qtree = hw_model.quantize_tree(self.tree, beta, self.quant_ranges)
            self._walks[beta] = tree_distiller.tree_walk_batch(qtree.tree, self.eval_x)
        return self._walks[beta]


def default_alpha_set(artifacts: JshcArtifacts) -> list[float]:
    """The base tree's own breakpoints (0 among them): every pruned shape shows up."""
    return sorted(set(artifacts.tree.collapse_alpha))


def evaluate_config(alpha: float, beta: int, artifacts: JshcArtifacts,
                    budget: ResourceBudget | None = None) -> ConfigEval:
    """Prune at alpha, quantize at beta, score on the eval split, from the
    walks at beta and the tree's collapse_alpha column.

    Deterministic and cached by (alpha, beta); feasibility is recomputed
    against the given budget on every call.
    """
    if alpha < 0 or beta < 1:
        raise ValueError("need alpha >= 0 and beta >= 1")
    key = (float(alpha), int(beta))
    if key not in artifacts._cache:
        tree = artifacts.tree
        y_pred = tree_distiller.labels_at(tree, artifacts.walk(beta), alpha)
        accuracy, f1, _ = metrics_from_predictions(artifacts.eval_y, y_pred, tree.k)
        n_nodes, max_depth = tree_distiller.pruned_shape(tree, alpha)
        cost = hw_model.shape_cost(n_nodes, max_depth, beta, artifacts.calib)
        artifacts._cache[key] = (accuracy, f1, cost)
    accuracy, f1, cost = artifacts._cache[key]
    feasible, _ = hw_model.check_constraint(cost, budget or ResourceBudget())
    return ConfigEval(alpha=float(alpha), beta=int(beta), accuracy=accuracy,
                      f1=f1, cost=cost, feasible=feasible, n_nodes=cost.n_nodes)


def _rank(e: ConfigEval) -> tuple:
    """Higher ranks better: higher accuracy, then smaller beta, then larger alpha."""
    return (e.accuracy, -e.beta, e.alpha)


def grid_sweep(cfg: JshcConfig, artifacts: JshcArtifacts) -> tuple[ConfigEval, list[ConfigEval]]:
    """Evaluate every distinct (alpha, beta) once; log ordered by (alpha, beta)."""
    alphas = (sorted(set(cfg.alpha_set)) if cfg.alpha_set is not None
              else default_alpha_set(artifacts))
    betas = sorted(set(cfg.beta_set)) if cfg.beta_set is not None else list(
        range(cfg.min_beta, cfg.max_beta + 1))
    if not alphas or not betas:
        raise ValueError("alpha and beta sets must be non-empty")
    log = [evaluate_config(a, b, artifacts, cfg.z_max) for a in alphas for b in betas]
    feasible = [e for e in log if e.feasible]
    if not feasible:
        counts = Counter(name for e in log
                         for name in hw_model.check_constraint(e.cost, cfg.z_max)[1])
        tightest = max(sorted(counts), key=counts.get)
        raise NoFeasibleConfigError(
            f"no feasible (alpha, beta) under the budget; tightest constraint: "
            f"{tightest} (violated by {counts[tightest]}/{len(log)} configs)")
    return max(feasible, key=_rank), log


def bisect_beta(best_alpha: float, cfg: JshcConfig, artifacts: JshcArtifacts,
                incumbent: ConfigEval | None = None) -> tuple[ConfigEval, list[BisectStep]]:
    """Integer bisection over beta at a fixed alpha.

    The interval moves by the raw accuracy rule (left up on >=, right
    down otherwise) until it stops moving, within ceil(log2(max_beta -
    min_beta)) + 1 steps; the winner is the best feasible evaluation seen,
    never worse than the incumbent from the grid phase.
    """
    left, right = cfg.min_beta, cfg.max_beta
    best = incumbent
    best_acc_seen = incumbent.accuracy if incumbent is not None else -1.0
    trace: list[BisectStep] = []
    while left < right:
        mid = int(math.floor((left + right) / 2.0 + 0.5))
        ev = evaluate_config(best_alpha, mid, artifacts, cfg.z_max)
        trace.append(BisectStep(left=left, right=right, mid=mid,
                                accuracy=ev.accuracy, feasible=ev.feasible))
        if ev.feasible and (best is None or _rank(ev) > _rank(best)):
            best = ev
        prev = (left, right)
        if ev.accuracy >= best_acc_seen:
            best_acc_seen = ev.accuracy
            left = mid
        else:
            right = mid
        if (left, right) == prev:  # interval stalled at integer resolution
            break
    if best is None:
        raise NoFeasibleConfigError("bisection found no feasible beta")
    return best, trace


def jshc_optimize(cfg: JshcConfig, artifacts: JshcArtifacts) -> JshcResult:
    """Grid sweep, then beta refinement at the winning alpha."""
    grid_best, log = grid_sweep(cfg, artifacts)
    best, trace = bisect_beta(grid_best.alpha, cfg, artifacts, incumbent=grid_best)
    return JshcResult(best_alpha=best.alpha, best_beta=best.beta,
                      best_accuracy=best.accuracy, best=best,
                      sweep_log=log, bisection_trace=trace)


def sweep_to_csv(log: list[ConfigEval], path: str) -> None:
    """One row per evaluated (alpha, beta) cell, written atomically."""
    with nn_core.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "accuracy", "f1", "n_nodes",
                         "power_mw", "area_units", "latency_s", "feasible"])
        for e in log:
            writer.writerow([repr(e.alpha), e.beta, repr(e.accuracy), repr(e.f1),
                             e.n_nodes, repr(e.cost.power_mw), repr(e.cost.area_units),
                             repr(e.cost.inference_time_s), int(e.feasible)])
