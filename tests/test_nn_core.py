import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ride import nn_core
from ride.nn_core import (
    DenseNet,
    Layer,
    TrainConfig,
    TrainingDivergedError,
    forward,
    gradient_check,
    init_dense_net,
    loss_cross_entropy,
    loss_mse,
    train,
)


def tiny_net():
    """2 -> 2 -> 2 net with hand-picked weights."""
    l1 = Layer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]), "relu")
    l2 = Layer(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.0, 0.0]), "identity")
    return DenseNet([l1, l2])


def test_forward_hand_computed():
    net = tiny_net()
    x = np.array([1.0, 2.0])
    # layer 1: relu([1+0.5, 2-0.5]) = [1.5, 1.5]
    # layer 2: [1.5+1.5, 1.5-1.5] = [3.0, 0.0]
    np.testing.assert_allclose(forward(net, x), [3.0, 0.0])


def test_forward_batch_matches_single():
    net = init_dense_net([3, 4, 2], ["tanh", "sigmoid"], seed=3)
    x = np.random.Generator(np.random.PCG64(0)).normal(size=(5, 3))
    batch = forward(net, x)
    for i in range(5):
        np.testing.assert_allclose(batch[i], forward(net, x[i]))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    net = DenseNet([Layer(np.eye(3), np.zeros(3), "softmax")])
    x = np.array([[1.0, 2.0, 3.0], [1001.0, 1002.0, 1003.0]])
    probs = forward(net, x)
    np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])
    # identical logit gaps -> identical probabilities, no overflow
    np.testing.assert_allclose(probs[0], probs[1])
    expected = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
    np.testing.assert_allclose(probs[0], expected)


def test_loss_mse_hand_value():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 0.0], [3.0, 2.0]])
    # per-sample squared L2: [1+4, 0+4] -> mean 4.5
    assert loss_mse(pred, target) == pytest.approx(4.5)


def test_loss_mse_shape_mismatch():
    with pytest.raises(ValueError):
        loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cross_entropy_hand_value():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    # -(log 0.9 + log 0.8)/2
    expected = -(np.log(0.9) + np.log(0.8)) / 2
    assert loss_cross_entropy(p, [0, 1]) == pytest.approx(expected)


def test_cross_entropy_clamps_zero_probability():
    p = np.array([[1.0, 0.0]])
    assert loss_cross_entropy(p, [1]) == pytest.approx(-np.log(1e-12))


def test_cross_entropy_rejects_bad_rows():
    with pytest.raises(ValueError):
        loss_cross_entropy(np.array([[0.6, 0.6]]), [0])
    with pytest.raises(ValueError):
        loss_cross_entropy(np.array([[0.5, 0.5]]), [2])


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(3), "relu")
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(2), "swish")
    with pytest.raises(ValueError):
        DenseNet([Layer(np.full((2, 2), np.nan), np.zeros(2), "relu")])


def test_net_chaining_and_softmax_position():
    l_soft = Layer(np.eye(2), np.zeros(2), "softmax")
    l_id = Layer(np.eye(2), np.zeros(2), "identity")
    with pytest.raises(ValueError):
        DenseNet([l_soft, l_id])
    with pytest.raises(ValueError):
        DenseNet([Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                  Layer(np.zeros((1, 4)), np.zeros(1), "identity")])


def test_init_dense_net_bounds_and_determinism():
    a = init_dense_net([10, 5, 2], ["relu", "identity"], seed=9, weight_init_scale=0.5)
    b = init_dense_net([10, 5, 2], ["relu", "identity"], seed=9, weight_init_scale=0.5)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w, lb.w)
        assert np.all(la.b == 0.0)
    assert np.abs(a.layers[0].w).max() <= 0.5 / np.sqrt(10)
    c = init_dense_net([10, 5, 2], ["relu", "identity"], seed=10)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


@pytest.mark.parametrize("loss,dims,acts", [
    ("mse", [4, 6, 4], ["relu", "sigmoid"]),
    ("mse", [3, 5, 5, 3], ["tanh", "relu", "identity"]),
    ("cross_entropy", [4, 8, 3], ["relu", "softmax"]),
    ("cross_entropy", [5, 4, 4], ["tanh", "softmax"]),
])
def test_gradient_check_random_nets(loss, dims, acts):
    rng = np.random.Generator(np.random.PCG64(42))
    net = init_dense_net(dims, acts, seed=7)
    # keep relu pre-activations away from the kink
    x = rng.normal(size=(6, dims[0])) + 0.05
    if loss == "mse":
        target = rng.normal(size=(6, dims[-1]))
    else:
        target = rng.integers(0, dims[-1], size=6)
    assert gradient_check(net, loss, x, target) < 1e-4


def test_train_zero_learning_rate_keeps_weights_and_history_constant():
    net = init_dense_net([3, 4, 3], ["relu", "identity"], seed=0)
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(size=(10, 3))
    trained, history = train(net, x, x, "mse", TrainConfig(learning_rate=0.0, epochs=4, seed=1))
    initial = loss_mse(forward(net, x), x)
    assert history == pytest.approx([initial] * 4)
    for l0, l1 in zip(net.layers, trained.layers):
        np.testing.assert_array_equal(l0.w, l1.w)


def test_train_history_entry_is_loss_at_epoch_start():
    net = init_dense_net([2, 3, 2], ["tanh", "identity"], seed=2)
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.normal(size=(8, 2))
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=1, seed=3)
    trained, history = train(net, x, x, "mse", cfg)
    assert history[0] == pytest.approx(loss_mse(forward(net, x), x))
    # continuing for one more epoch records the trained net's loss next
    _, history2 = train(net, x, x, "mse",
                        TrainConfig(learning_rate=1e-2, batch_size=4, epochs=2, seed=3))
    assert history2[0] == pytest.approx(history[0])
    assert history2[1] == pytest.approx(loss_mse(forward(trained, x), x))


def test_train_does_not_mutate_input_net():
    net = init_dense_net([2, 2], ["identity"], seed=0)
    w_before = net.layers[0].w.copy()
    train(net, np.ones((4, 2)), np.zeros((4, 2)), "mse",
          TrainConfig(learning_rate=0.1, epochs=2))
    np.testing.assert_array_equal(net.layers[0].w, w_before)


def test_sgd_single_step_hand_computed():
    # one weight, one sample: w=2, x=1, target=0, mse loss
    # pred=2, dL/dpred = 2*(2-0)/1 = 4, dW = 4*1, db = 4
    net = DenseNet([Layer(np.array([[2.0]]), np.array([0.0]), "identity")])
    cfg = TrainConfig(learning_rate=0.01, batch_size=1, epochs=1, seed=0, optimizer="sgd")
    trained, _ = train(net, np.array([[1.0]]), np.array([[0.0]]), "mse", cfg)
    assert trained.layers[0].w[0, 0] == pytest.approx(2.0 - 0.01 * 4.0)
    assert trained.layers[0].b[0] == pytest.approx(-0.01 * 4.0)


def test_adam_single_step_hand_computed():
    net = DenseNet([Layer(np.array([[2.0]]), np.array([0.0]), "identity")])
    lr = 0.01
    cfg = TrainConfig(learning_rate=lr, batch_size=1, epochs=1, seed=0, optimizer="adam")
    trained, _ = train(net, np.array([[1.0]]), np.array([[0.0]]), "mse", cfg)
    g = 4.0
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    step = lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert trained.layers[0].w[0, 0] == pytest.approx(2.0 - step, rel=1e-12)


def test_train_seed_determinism():
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    net = init_dense_net([3, 5, 2], ["relu", "softmax"], seed=1)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=3, seed=11)
    a, ha = train(net, x, y, "cross_entropy", cfg)
    b, hb = train(net, x, y, "cross_entropy", cfg)
    assert ha == hb
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w, lb.w)


def test_train_learns_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    net = init_dense_net([2, 8, 2], ["tanh", "softmax"], seed=4)
    cfg = TrainConfig(learning_rate=5e-2, batch_size=4, epochs=300, seed=4)
    trained, history = train(net, x, y, "cross_entropy", cfg)
    pred = np.argmax(forward(trained, x), axis=1)
    np.testing.assert_array_equal(pred, y)
    assert history[-1] < history[0]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_divergence_raises():
    net = DenseNet([Layer(np.array([[1.0]]), np.array([0.0]), "identity")])
    x = np.array([[1e5]])
    target = np.array([[0.0]])
    cfg = TrainConfig(learning_rate=1e30, batch_size=1, epochs=8, seed=0, optimizer="sgd")
    with pytest.raises(TrainingDivergedError):
        train(net, x, target, "mse", cfg)


def test_train_rejects_bad_inputs():
    net = init_dense_net([2, 2], ["identity"], seed=0)
    with pytest.raises(ValueError):
        train(net, np.zeros((0, 2)), np.zeros((0, 2)), "mse", TrainConfig())
    with pytest.raises(ValueError):
        train(net, np.zeros((2, 3)), np.zeros((2, 3)), "mse", TrainConfig())
    with pytest.raises(ValueError):
        train(net, np.zeros((2, 2)), np.zeros((2, 2)), "hinge", TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")


def test_serialization_round_trip(tmp_path):
    net = init_dense_net([3, 4, 2], ["relu", "softmax"], seed=5)
    path = str(tmp_path / "net.npz")
    nn_core.save_artifact(path, {"seed": 5}, nets={"net": net})
    meta, nets, _ = nn_core.load_artifact(path, nets=("net",), fields=("seed",))
    loaded = nets["net"]
    assert loaded.input_dim == 3 and loaded.output_dim == 2
    assert meta == {"seed": 5, "nets": {"net": {"dims": [3, 4, 2],
                                                 "activations": ["relu", "softmax"]}}}
    x = np.random.Generator(np.random.PCG64(3)).normal(size=(4, 3))
    np.testing.assert_allclose(forward(loaded, x), forward(net, x))
    assert not os.path.exists(path + ".tmp")


def _rewrite(path, **changes):
    """Rewrite a model file with entries replaced (value) or dropped (None)."""
    with np.load(path, allow_pickle=False) as npz:
        entries = {k: npz[k] for k in npz.files}
    for key, value in changes.items():
        if value is None:
            del entries[key]
        else:
            entries[key] = value
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def test_serialization_detects_header_mismatch(tmp_path):
    path = str(tmp_path / "net.npz")
    nn_core.save_artifact(path, {}, nets={"net": init_dense_net([2, 2], ["identity"], seed=0)})
    _rewrite(path, meta=np.array(json.dumps(
        {"nets": {"net": {"dims": [5, 2], "activations": ["identity"]}}})))
    with pytest.raises(ValueError, match=r"net\.npz.*disagree with dims 5 -> 2"):
        nn_core.load_artifact(path, nets=("net",))


def test_bad_model_files_raise_naming_the_path(tmp_path):
    net = init_dense_net([3, 2, 2], ["tanh", "softmax"], seed=1)

    def fresh(name):
        path = str(tmp_path / name)
        nn_core.save_artifact(path, {"seed": 1}, nets={"net": net})
        return path

    garbage = str(tmp_path / "garbage.npz")
    with open(garbage, "wb") as fh:
        fh.write(b"not a zip archive at all" * 4)
    truncated = fresh("truncated.npz")
    with open(truncated, "rb") as fh:
        data = fh.read()
    with open(truncated, "wb") as fh:
        fh.write(data[:len(data) // 2])
    no_meta = fresh("no_meta.npz")
    _rewrite(no_meta, meta=None)
    no_weight = fresh("no_weight.npz")
    _rewrite(no_weight, **{"net.w1": None})
    wrong_shape = fresh("wrong_shape.npz")
    _rewrite(wrong_shape, **{"net.w0": np.zeros((2, 4))})
    object_array = fresh("object_array.npz")
    _rewrite(object_array, **{"net.b0": np.array([1.0, None], dtype=object)})
    cases = {garbage: "not a .npz archive", truncated: "not a .npz archive",
             no_meta: "no 'meta' entry", no_weight: "no 'net.w1' entry",
             wrong_shape: r"layer 0: weights \(2, 4\).*disagree",
             object_array: "Object arrays cannot be loaded"}
    for path, why in cases.items():
        with pytest.raises(ValueError, match=f"bad model file {re.escape(path)}: .*{why}"):
            nn_core.load_artifact(path, nets=("net",))
    with pytest.raises(ValueError, match="lacks \\['final'\\]"):
        nn_core.load_artifact(fresh("fields.npz"), fields=("seed", "final"))
    with pytest.raises(ValueError, match="describes no net 'other'"):
        nn_core.load_artifact(fresh("other.npz"), nets=("other",))
    with pytest.raises(FileNotFoundError):
        nn_core.load_artifact(str(tmp_path / "absent.npz"))


@st.composite
def dense_nets(draw):
    n_layers = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 8), min_size=n_layers + 1, max_size=n_layers + 1))
    hidden = st.sampled_from([a for a in nn_core.ACTIVATIONS if a != "softmax"])
    activations = draw(st.lists(hidden, min_size=n_layers - 1, max_size=n_layers - 1))
    activations.append(draw(st.sampled_from(nn_core.ACTIVATIONS)))
    weights = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)
    return DenseNet([
        Layer(draw(hnp.arrays(np.float64, (dims[k + 1], dims[k]), elements=weights)),
              draw(hnp.arrays(np.float64, (dims[k + 1],), elements=weights)),
              activations[k])
        for k in range(n_layers)])


@given(net=dense_nets(), seed=st.integers(0, 2**32 - 1))
def test_random_nets_round_trip_bit_exactly(tmp_path_factory, net, seed):
    path = str(tmp_path_factory.mktemp("nets") / "net.npz")
    nn_core.save_artifact(path, {}, nets={"net": net})
    _, nets, _ = nn_core.load_artifact(path, nets=("net",))
    loaded = nets["net"]
    assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]
    for a, b in zip(loaded.layers, net.layers, strict=True):
        assert np.array_equal(a.w, b.w) and a.w.tobytes() == b.w.tobytes()
        assert np.array_equal(a.b, b.b) and a.b.tobytes() == b.b.tobytes()
    x = np.random.Generator(np.random.PCG64(seed)).normal(size=(5, net.input_dim))
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(forward(loaded, x), forward(net, x))
