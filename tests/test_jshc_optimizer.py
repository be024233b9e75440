"""Joint (alpha, beta) search: grid, bisection, feasibility, selection rule.

The workhorse fixture is a 1-D dataset whose CART tree and pruning path
are small enough to verify by hand:

    train x = 0..7, teacher labels [0,0,0,0,1,1,1,0]  (x=7 mislabeled)
    full tree: root split at 3.5, right branch split at 6.5 -> 5 nodes
    path alphas: [0, 0.1875, 0.28125], node counts [5, 3, 1]

The eval split follows the clean rule (x > 3.5 -> class 1) with points
kept away from the thresholds, so pruning the noise split at alpha =
0.1875 keeps eval accuracy at 1.0 while the root-collapse at 0.28125
drops it to 0.5. Quantizing the 3.5 threshold over the fitted range
[0, 7] only recovers accuracy 1.0 from beta = 4 upward (at beta <= 3 the
snapped threshold moves past x = 4), which pins the expected winner to
(alpha = 0.1875, beta = 4) under the accuracy / smaller-beta / larger-
alpha selection key.
"""
import csv
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ride import hw_model, jshc_optimizer as jo, tree_distiller
from ride.hw_model import ResourceBudget
from ride.jshc_optimizer import JshcArtifacts, JshcConfig, NoFeasibleConfigError


def _toy_artifacts():
    train_x = np.arange(8, dtype=np.float64).reshape(-1, 1)
    train_y = np.array([0, 0, 0, 0, 1, 1, 1, 0], dtype=np.int64)
    eval_x = np.array([[0.0], [1.0], [2.0], [4.0], [5.0], [6.0]])
    eval_y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    class_names = ["benign", "attack"]
    tree = tree_distiller.cart_train(train_x, train_y, class_names=class_names)
    return JshcArtifacts(eval_x=eval_x, eval_y=eval_y,
                         calib=hw_model.default_calibration(), tree=tree,
                         quant_ranges=hw_model.fit_quantization_ranges(tree, train_x))


def test_default_alpha_set_is_path_breakpoints():
    art = _toy_artifacts()
    assert jo.default_alpha_set(art) == [0.0, 0.1875, 0.28125]
    assert art.tree.n_nodes == 5


def test_evaluate_config_hand_accuracies():
    art = _toy_artifacts()
    # unpruned, generous beta: perfect on the clean eval split
    assert jo.evaluate_config(0.0, 11, art).accuracy == 1.0
    # noise split pruned away, still perfect
    assert jo.evaluate_config(0.1875, 11, art).accuracy == 1.0
    # root collapsed to the majority leaf
    assert jo.evaluate_config(0.28125, 11, art).accuracy == 0.5
    # coarse quantization pushes the root threshold past x=4
    assert jo.evaluate_config(0.1875, 1, art).accuracy == 0.5
    assert jo.evaluate_config(0.1875, 2, art).accuracy == pytest.approx(5 / 6)
    assert jo.evaluate_config(0.1875, 3, art).accuracy == pytest.approx(5 / 6)
    assert jo.evaluate_config(0.1875, 4, art).accuracy == 1.0


def test_evaluate_config_validation_and_node_counts():
    art = _toy_artifacts()
    with pytest.raises(ValueError):
        jo.evaluate_config(-0.1, 4, art)
    with pytest.raises(ValueError):
        jo.evaluate_config(0.0, 0, art)
    assert jo.evaluate_config(0.0, 4, art).n_nodes == 5
    assert jo.evaluate_config(0.1875, 4, art).n_nodes == 3
    assert jo.evaluate_config(0.28125, 4, art).n_nodes == 1


def test_evaluate_config_caches_by_alpha_beta_but_rechecks_budget():
    art = _toy_artifacts()
    first = jo.evaluate_config(0.1875, 4, art)
    assert (0.1875, 4) in art._cache
    # tamper with the cache: a second call must serve the tampered value,
    # proving no recomputation...
    acc, f1, cost = art._cache[(0.1875, 4)]
    art._cache[(0.1875, 4)] = (0.123, f1, cost)
    assert jo.evaluate_config(0.1875, 4, art).accuracy == 0.123
    # ...while feasibility still tracks the budget passed right now
    tight = ResourceBudget(max_area_units=0.5)
    assert first.feasible is True
    assert jo.evaluate_config(0.1875, 4, art, tight).feasible is False


def test_grid_sweep_winner_and_ordering():
    art = _toy_artifacts()
    cfg = JshcConfig()  # default alphas (path) x betas 1..11
    best, log = jo.grid_sweep(cfg, art)
    assert (best.alpha, best.beta) == (0.1875, 4)
    assert best.accuracy == 1.0
    assert len(log) == 3 * 11
    keys = [(e.alpha, e.beta) for e in log]
    assert keys == sorted(keys)
    # independent re-evaluation agrees cell by cell (fresh artifacts)
    art2 = _toy_artifacts()
    for e in log:
        again = jo.evaluate_config(e.alpha, e.beta, art2)
        assert again.accuracy == e.accuracy and again.n_nodes == e.n_nodes


def test_grid_sweep_respects_feasibility_in_selection():
    # area scales with node count: 2.0 units only fit the 1-node tree
    # (0.96..1.06 across beta), so the accuracy-1.0 configs are all
    # infeasible and selection falls back to the collapsed root
    art = _toy_artifacts()
    cfg = JshcConfig(z_max=ResourceBudget(max_area_units=2.0))
    best, log = jo.grid_sweep(cfg, art)
    assert all(e.feasible == (e.alpha == 0.28125) for e in log)
    assert (best.alpha, best.beta) == (0.28125, 1)
    assert best.accuracy == 0.5


def test_grid_sweep_no_feasible_config_names_constraint():
    art = _toy_artifacts()
    cfg = JshcConfig(z_max=ResourceBudget(max_area_units=0.5))
    with pytest.raises(NoFeasibleConfigError, match="area"):
        jo.grid_sweep(cfg, art)


def test_grid_sweep_rejects_empty_sets():
    art = _toy_artifacts()
    with pytest.raises(ValueError):
        JshcConfig(alpha_set=[])
    with pytest.raises(ValueError):
        jo.grid_sweep(JshcConfig(beta_set=[]), art)


def test_grid_sweep_evaluates_and_logs_each_cell_once():
    art = _toy_artifacts()
    cfg = JshcConfig(alpha_set=[0.1875, 0.0, 0.0], beta_set=[4, 4, 6])
    with mock.patch.object(jo, "evaluate_config", wraps=jo.evaluate_config) as spy:
        best, log = jo.grid_sweep(cfg, art)
    assert [(e.alpha, e.beta) for e in log] == [(0.0, 4), (0.0, 6), (0.1875, 4), (0.1875, 6)]
    assert spy.call_count == 4
    assert (best.alpha, best.beta) == (0.1875, 4)


def test_bisect_adjacent_interval_is_single_evaluation():
    art = _toy_artifacts()
    cfg = JshcConfig(min_beta=10, max_beta=11)
    best, trace = jo.bisect_beta(0.1875, cfg, art)
    assert len(trace) == 1
    assert trace[0].mid in (10, 11)
    assert best.feasible


def test_bisect_without_a_feasible_beta_or_an_incumbent_raises():
    art = _toy_artifacts()
    cfg = JshcConfig(z_max=ResourceBudget(max_area_units=0.5))  # no beta fits
    with pytest.raises(NoFeasibleConfigError):
        jo.bisect_beta(0.1875, cfg, art, incumbent=None)


def _bisect_beta_with_knobs(best_alpha, cfg, artifacts, incumbent=None, tol=1.0, max_iter=20):
    """bisect_beta as it was while JshcConfig had tol and max_iter, at
    their defaults: the reference the knob-free loop must match."""
    left, right = cfg.min_beta, cfg.max_beta
    tol = max(tol, 1.0)
    best = incumbent
    best_acc_seen = incumbent.accuracy if incumbent is not None else -1.0
    trace = []
    iters = 0
    while right - left >= tol and iters < max_iter:
        mid = int(math.floor((left + right) / 2.0 + 0.5))
        ev = jo.evaluate_config(best_alpha, mid, artifacts, cfg.z_max)
        trace.append(jo.BisectStep(left=left, right=right, mid=mid,
                                   accuracy=ev.accuracy, feasible=ev.feasible))
        if ev.feasible and (best is None or jo._rank(ev) > jo._rank(best)):
            best = ev
        prev = (left, right)
        if ev.accuracy >= best_acc_seen:
            best_acc_seen = ev.accuracy
            left = mid
        else:
            right = mid
        if (left, right) == prev:
            break
        iters += 1
    if best is None:
        raise NoFeasibleConfigError("bisection found no feasible beta")
    return best, trace


@st.composite
def _bisect_cases(draw):
    """A beta range within 1..16, a per-beta accuracy and feasibility
    table (few accuracies, so ties occur) and an optional feasible
    incumbent read off the table."""
    min_beta = draw(st.integers(1, 16))
    max_beta = draw(st.integers(min_beta, 16))
    accuracy = draw(st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0]), min_size=17, max_size=17))
    feasible = draw(st.lists(st.booleans(), min_size=17, max_size=17))
    incumbent = draw(st.none() | st.integers(1, 16))
    return min_beta, max_beta, accuracy, feasible, incumbent


@given(case=_bisect_cases())
def test_bisect_beta_matches_the_loop_with_tol_and_max_iter(case):
    min_beta, max_beta, accuracy, feasible, incumbent_beta = case

    def table(alpha, beta, artifacts, budget=None):
        return jo.ConfigEval(alpha=alpha, beta=beta, accuracy=accuracy[beta], f1=accuracy[beta],
                             cost=None, feasible=feasible[beta], n_nodes=1)

    cfg = JshcConfig(min_beta=min_beta, max_beta=max_beta)
    incumbent = None if incumbent_beta is None else dataclasses.replace(
        table(0.5, incumbent_beta, None), feasible=True)
    with mock.patch.object(jo, "evaluate_config", table):
        try:
            want = _bisect_beta_with_knobs(0.5, cfg, None, incumbent)
        except NoFeasibleConfigError:
            with pytest.raises(NoFeasibleConfigError):
                jo.bisect_beta(0.5, cfg, None, incumbent)
            return
        got = jo.bisect_beta(0.5, cfg, None, incumbent)
    assert got == want
    width = max_beta - min_beta
    assert len(got[1]) <= ((width - 1).bit_length() + 1 if width else 0)


def test_bisect_trace_stays_in_bounds_and_never_worse_than_incumbent():
    art = _toy_artifacts()
    cfg = JshcConfig(min_beta=1, max_beta=11)
    incumbent = jo.evaluate_config(0.1875, 4, art)
    best, trace = jo.bisect_beta(0.1875, cfg, art, incumbent=incumbent)
    assert all(1 <= s.mid <= 11 and 1 <= s.left <= s.right <= 11 for s in trace)
    assert (best.accuracy, -best.beta) >= (incumbent.accuracy, -incumbent.beta)
    assert best.feasible


def test_bisect_refines_a_sparse_grid():
    # grid only saw beta in {1, 11}; bisection must discover a cheaper
    # beta with the same accuracy between them
    art = _toy_artifacts()
    cfg = JshcConfig(beta_set=[1, 11])
    grid_best, _log = jo.grid_sweep(cfg, art)
    assert grid_best.beta == 11
    refine_cfg = JshcConfig(min_beta=1, max_beta=11)
    best, _trace = jo.bisect_beta(grid_best.alpha, refine_cfg, art,
                                  incumbent=grid_best)
    assert best.accuracy == grid_best.accuracy == 1.0
    assert best.beta < 11


def test_jshc_optimize_full_run_winner_and_logs():
    art = _toy_artifacts()
    res = jo.jshc_optimize(JshcConfig(), art)
    assert (res.best_alpha, res.best_beta) == (0.1875, 4)
    assert res.best_accuracy == 1.0
    assert res.best.feasible
    assert len(res.sweep_log) == 33
    assert all(1 <= s.mid <= 11 for s in res.bisection_trace)
    # never worse than any grid entry
    assert all(res.best_accuracy >= e.accuracy for e in res.sweep_log)


def test_jshc_optimize_never_selects_infeasible():
    art = _toy_artifacts()
    cfg = JshcConfig(z_max=ResourceBudget(max_area_units=2.0))
    res = jo.jshc_optimize(cfg, art)
    assert res.best.feasible
    assert (res.best_alpha, res.best_beta) == (0.28125, 1)
    assert res.best_accuracy == 0.5
    # the accuracy-1.0 cells exist in the log but are all flagged infeasible
    better = [e for e in res.sweep_log if e.accuracy > res.best_accuracy]
    assert better and all(not e.feasible for e in better)


def test_jshc_optimize_is_deterministic():
    a = jo.jshc_optimize(JshcConfig(), _toy_artifacts())
    b = jo.jshc_optimize(JshcConfig(), _toy_artifacts())
    assert (a.best_alpha, a.best_beta, a.best_accuracy) == \
           (b.best_alpha, b.best_beta, b.best_accuracy)
    assert [(e.alpha, e.beta, e.accuracy) for e in a.sweep_log] == \
           [(e.alpha, e.beta, e.accuracy) for e in b.sweep_log]


def test_config_validation():
    with pytest.raises(ValueError):
        JshcConfig(min_beta=5, max_beta=4)
    with pytest.raises(ValueError):
        JshcConfig(min_beta=0)
    with pytest.raises(ValueError):
        JshcConfig(alpha_set=[-0.5])


def test_sweep_to_csv_round_trip(tmp_path):
    art = _toy_artifacts()
    _best, log = jo.grid_sweep(JshcConfig(beta_set=[2, 4]), art)
    path = tmp_path / "sweep.csv"
    jo.sweep_to_csv(log, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "beta", "accuracy", "f1", "n_nodes",
                       "power_mw", "area_units", "latency_s", "feasible"]
    assert len(rows) == 1 + len(log)
    for row, e in zip(rows[1:], log):
        assert float(row[0]) == e.alpha and int(row[1]) == e.beta
        assert float(row[2]) == e.accuracy and float(row[3]) == e.f1
        assert int(row[8]) == int(e.feasible)
