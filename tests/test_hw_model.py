import dataclasses
import json

import numpy as np
import pytest

from ride import hw_model as hw
from ride import tree_distiller as td


def simple_tree(thresholds=(0.3,), feature=0, n_features=1):
    """Chain tree splitting the same feature at the given thresholds."""
    rng = np.random.Generator(np.random.PCG64(0))
    n = 64
    x = rng.uniform(0.0, 1.0, size=(n, n_features))
    y = np.zeros(n, dtype=int)
    for t in thresholds:
        y += x[:, feature] > t
    return td.cart_train(x, y)


def organic_tree(n_nodes_at_least=15, seed=9):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(400, 4))
    y = ((x[:, 0] > 0).astype(int) + (x[:, 1] * x[:, 2] > 0.2)).astype(int)
    tree = td.cart_train(x, y, max_depth=4, min_samples_leaf=20)
    assert tree.n_nodes >= n_nodes_at_least
    return tree, x


# ------------------------------------------------------------ calibration

def test_default_power_anchor_values():
    calib = hw.default_calibration()
    # 35-node tree consumes 0.97 mW at beta=5 and 3.88 mW at beta=11
    assert 35 * calib.power_mw_per_node[5] == pytest.approx(0.97)
    assert 35 * calib.power_mw_per_node[11] == pytest.approx(3.88)
    # flat through beta<=5, then linear
    for b in range(1, 6):
        assert calib.power_mw_per_node[b] == calib.power_mw_per_node[5]
    seven = calib.power_mw_per_node
    slope = seven[7] - seven[6]
    for b in range(6, 16):
        assert seven[b + 1] - seven[b] == pytest.approx(slope)


def test_default_area_is_bounded_and_non_decreasing():
    calib = hw.default_calibration()
    areas = [calib.area_per_node[b] for b in range(1, 17)]
    assert all(a <= b for a, b in zip(areas, areas[1:]))
    assert max(areas) == pytest.approx(1.10)
    assert areas[0] == pytest.approx(0.96)


def test_calibration_validation():
    good = hw.default_calibration()
    with pytest.raises(ValueError, match="missing beta"):
        hw.CostCalibration(power_mw_per_node={1: 0.1},
                           area_per_node=good.area_per_node,
                           latency_per_level_s=1e-5)
    bad_power = dict(good.power_mw_per_node)
    bad_power[10] = 0.0  # breaks monotonicity
    with pytest.raises(ValueError, match="non-decreasing"):
        hw.CostCalibration(power_mw_per_node=bad_power,
                           area_per_node=good.area_per_node,
                           latency_per_level_s=1e-5)
    with pytest.raises(ValueError, match="latency"):
        hw.CostCalibration(power_mw_per_node=good.power_mw_per_node,
                           area_per_node=good.area_per_node,
                           latency_per_level_s=0.0)


def test_calibration_json_round_trip(tmp_path):
    calib = hw.default_calibration()
    path = tmp_path / "calib.json"
    path.write_text(json.dumps(hw.calibration_to_dict(calib)))
    loaded = hw.load_calibration(str(path))
    assert loaded == calib


def test_load_calibration_missing_file_raises(tmp_path):
    missing = str(tmp_path / "calib.json")
    with pytest.raises(FileNotFoundError, match="calib.json"):
        hw.load_calibration(missing)
    assert hw.load_calibration(None) == hw.default_calibration()


# ----------------------------------------------------------- quantization

def test_fit_ranges_per_split_feature_only():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.normal(size=(50, 3))
    y = (x[:, 1] > 0).astype(int)
    tree = td.cart_train(x, y)
    ranges = hw.fit_quantization_ranges(tree, x)
    split_features = {f for f in tree.feature if f >= 0}
    assert set(ranges) == split_features
    for f, (lo, hi) in ranges.items():
        assert lo == pytest.approx(x[:, f].min())
        assert hi == pytest.approx(x[:, f].max())


def test_fit_ranges_widens_constant_feature():
    x = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0], [1.0, 5.0]])
    tree = td.cart_train(x, np.array([0, 0, 1, 1]))
    # force a range query on the constant feature by asking directly
    wide = hw.fit_quantization_ranges(tree, np.full((4, 2), 7.0))
    for lo, hi in wide.values():
        assert (lo, hi) == (6.5, 7.5)


def test_quantize_beta1_snaps_to_range_ends():
    tree = simple_tree(thresholds=(0.3,))
    ranges = {0: (0.0, 1.0)}
    q = hw.quantize_tree(tree, 1, ranges)
    # threshold ~0.3 is nearer the low end
    assert q.tree.threshold[0] == 0.0
    assert q.level[0] == 0


def test_quantize_midway_tie_snaps_up():
    tree = simple_tree(thresholds=(0.3,))
    tree.threshold[0] = 0.5
    q = hw.quantize_tree(tree, 1, {0: (0.0, 1.0)})
    assert q.tree.threshold[0] == 1.0


@pytest.mark.parametrize("beta", [2, 3, 5, 8])
def test_quantization_error_bounded_by_half_step(beta):
    rng = np.random.Generator(np.random.PCG64(beta))
    x = rng.uniform(-2.0, 3.0, size=(200, 2))
    y = ((x[:, 0] > 0.37) | (x[:, 1] > 1.1)).astype(int)
    tree = td.cart_train(x, y, max_depth=3)
    ranges = hw.fit_quantization_ranges(tree, x)
    q = hw.quantize_tree(tree, beta, ranges)
    for f, t, qt, j in zip(tree.feature, tree.threshold, q.tree.threshold, q.level):
        if f < 0:
            assert j == -1
            continue
        lo, hi = ranges[f]
        step = (hi - lo) / (2 ** beta - 1)
        assert abs(qt - t) <= step / 2 + 1e-12
        # the snapped value is itself a grid level
        assert qt == pytest.approx(lo + j * step)


def test_quantize_preserves_topology_and_leaves():
    tree, x = organic_tree()
    q = hw.quantize_tree(tree, 4, hw.fit_quantization_ranges(tree, x))
    assert q.n_nodes == tree.n_nodes
    for col in ("feature", "left", "right", "depth", "r_node", "predicted_class",
                "collapse_alpha"):
        assert getattr(q.tree, col) == getattr(tree, col), col
    np.testing.assert_array_equal(q.tree.counts, tree.counts)


def test_quantize_missing_range_raises():
    tree = simple_tree()
    with pytest.raises(ValueError, match="feature 0"):
        hw.quantize_tree(tree, 3, {5: (0.0, 1.0)})
    with pytest.raises(ValueError, match="bad range"):
        hw.quantize_tree(tree, 3, {0: (1.0, 1.0)})
    with pytest.raises(ValueError):
        hw.quantize_tree(tree, 0, {0: (0.0, 1.0)})


def test_quantized_tree_agreement_improves_with_beta():
    tree, x = organic_tree()
    ranges = hw.fit_quantization_ranges(tree, x)
    base = td.tree_predict_batch(tree, x)
    agr1 = np.mean(td.tree_predict_batch(hw.quantize_tree(tree, 1, ranges).tree, x) == base)
    agr8 = np.mean(td.tree_predict_batch(hw.quantize_tree(tree, 8, ranges).tree, x) == base)
    assert agr8 >= agr1
    assert agr8 > 0.99


# ------------------------------------------------------------------- cost

def test_cost_estimate_anchors():
    calib = hw.default_calibration()
    tree, x = organic_tree()
    ranges = hw.fit_quantization_ranges(tree, x)
    cost5 = hw.cost_estimate(hw.quantize_tree(tree, 5, ranges), calib)
    assert cost5.power_mw == pytest.approx(tree.n_nodes * 0.97 / 35.0)
    cost11 = hw.cost_estimate(hw.quantize_tree(tree, 11, ranges), calib)
    assert cost11.power_mw == pytest.approx(tree.n_nodes * 3.88 / 35.0)
    # latency follows the deepest root-to-leaf path
    assert cost11.inference_time_s == pytest.approx(tree.max_depth * 1e-5)
    assert cost11.area_units == pytest.approx(tree.n_nodes * 1.06)


def test_cost_requires_covered_beta():
    calib = hw.default_calibration()
    tree = simple_tree()
    q = hw.quantize_tree(tree, 3, {0: (0.0, 1.0)})
    q.beta = 42
    with pytest.raises(ValueError, match="beta=42"):
        hw.cost_estimate(q, calib)


def test_hardware_cost_validation():
    with pytest.raises(ValueError):
        hw.HardwareCost(power_mw=-1.0, area_units=1.0, inference_time_s=1.0,
                        n_nodes=1, beta=1)


def test_check_constraint_lists_violations():
    cost = hw.HardwareCost(power_mw=2.0, area_units=30.0, inference_time_s=4e-5,
                           n_nodes=29, beta=6)
    ok, v = hw.check_constraint(cost, hw.ResourceBudget())
    assert ok and v == []
    ok, v = hw.check_constraint(cost, hw.ResourceBudget(max_power_mw=2.0))
    assert ok  # inclusive comparison
    ok, v = hw.check_constraint(cost, hw.ResourceBudget(max_power_mw=1.9,
                                                        max_latency_s=1e-5))
    assert not ok and v == ["power", "latency"]
    ok, v = hw.check_constraint(cost, hw.ResourceBudget(max_area_units=29.0))
    assert not ok and v == ["area"]


def test_budget_from_dict_partial():
    b = hw.ResourceBudget(**{"max_power_mw": 3.0})
    assert b.max_power_mw == 3.0 and b.max_area_units is None


# ---------------------------------------------------------- serialization

def test_qtree_round_trip(tmp_path):
    tree, x = organic_tree()
    q = hw.quantize_tree(tree, 6, hw.fit_quantization_ranges(tree, x))
    path = tmp_path / "qtree.json"
    path.write_text(json.dumps(hw.qtree_to_dict(q)))
    loaded = hw.load_qtree(str(path))
    assert loaded.beta == 6
    assert loaded.ranges == q.ranges
    assert loaded.level == q.level
    assert loaded.tree.threshold == q.tree.threshold
    np.testing.assert_array_equal(
        td.tree_predict_batch(loaded.tree, x), td.tree_predict_batch(q.tree, x))


def test_cost_to_dict_round_trip():
    cost = hw.HardwareCost(power_mw=1.0, area_units=2.0, inference_time_s=3e-5,
                           n_nodes=7, beta=4)
    doc = dataclasses.asdict(cost)
    assert doc == {"power_mw": 1.0, "area_units": 2.0, "inference_time_s": 3e-5,
                   "n_nodes": 7, "beta": 4}
