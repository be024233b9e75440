import json
import os
import re
import threading

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


def _reference_train(net, x, targets, loss, cfg):
    """The out-of-place training loop train() replaced, kept as its oracle:
    fresh gradient arrays every step and Adam as whole-array expressions.
    Also returns every batch's loss and size."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    net = net.copy()
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    m_w = [np.zeros_like(l.w) for l in net.layers]
    v_w = [np.zeros_like(l.w) for l in net.layers]
    m_b = [np.zeros_like(l.b) for l in net.layers]
    v_b = [np.zeros_like(l.b) for l in net.layers]
    t, batches = 0, []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch = []
        for bstart in range(0, n, cfg.batch_size):
            idx = order[bstart:bstart + cfg.batch_size]
            zs, acts = nn_core._forward_trace(net, x[idx])
            value, da = nn_core._loss_value_and_grad(loss, acts[-1], targets[idx])
            epoch.append((value, idx.size))
            grads_w, grads_b = [None] * len(net.layers), [None] * len(net.layers)
            for k in range(len(net.layers) - 1, -1, -1):
                layer = net.layers[k]
                dz = nn_core._activation_grad(layer.activation, zs[k], acts[k + 1], da)
                grads_w[k] = dz.T @ acts[k]
                grads_b[k] = dz.sum(axis=0)
                da = dz @ layer.w
            if cfg.optimizer == "adam":
                t += 1
                corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
                for k, layer in enumerate(net.layers):
                    m_w[k] = b1 * m_w[k] + (1 - b1) * grads_w[k]
                    v_w[k] = b2 * v_w[k] + (1 - b2) * grads_w[k] ** 2
                    m_b[k] = b1 * m_b[k] + (1 - b1) * grads_b[k]
                    v_b[k] = b2 * v_b[k] + (1 - b2) * grads_b[k] ** 2
                    layer.w -= cfg.learning_rate * (m_w[k] / corr1) / (np.sqrt(v_w[k] / corr2) + eps)
                    layer.b -= cfg.learning_rate * (m_b[k] / corr1) / (np.sqrt(v_b[k] / corr2) + eps)
            else:
                for k, layer in enumerate(net.layers):
                    layer.w -= cfg.learning_rate * grads_w[k]
                    layer.b -= cfg.learning_rate * grads_b[k]
        batches.append(epoch)
    return net, batches


def _assert_same_weights(a, b):
    for la, lb in zip(a.layers, b.layers, strict=True):
        assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)


def test_train_history_entry_is_loss_at_epoch_start():
    net = init_dense_net([2, 3, 2], ["tanh", "identity"], seed=2)
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.normal(size=(8, 2))
    # one batch per epoch: entry e is the loss at the start of epoch e
    cfg = TrainConfig(learning_rate=1e-2, batch_size=8, epochs=1, seed=3)
    trained, history = train(net, x, x, "mse", cfg)
    assert history[0] == pytest.approx(loss_mse(forward(net, x), x))
    _, history2 = train(net, x, x, "mse",
                        TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=3))
    assert history2[0] == pytest.approx(history[0])
    assert history2[1] == pytest.approx(loss_mse(forward(trained, x), x))
    # smaller batches (3 + 3 + 2 rows): entry e is the sample-weighted mean
    # of epoch e's batch losses, each taken before its batch's update
    cfg = TrainConfig(learning_rate=1e-2, batch_size=3, epochs=2, seed=3)
    _, history = train(net, x, x, "mse", cfg)
    _, batches = _reference_train(net, x, x, "mse", cfg)
    assert [[size for _, size in epoch] for epoch in batches] == [[3, 3, 2]] * 2
    assert history == pytest.approx(
        [sum(value * size for value, size in epoch) / 8 for epoch in batches], rel=1e-12)


@st.composite
def training_runs(draw):
    """A small net, data for it, and a TrainConfig whose batch size need not
    divide the row count."""
    loss = draw(st.sampled_from(nn_core.LOSSES))
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    hidden = st.sampled_from([a for a in nn_core.ACTIVATIONS if a != "softmax"])
    activations = draw(st.lists(hidden, min_size=len(dims) - 2, max_size=len(dims) - 2))
    if loss == "cross_entropy":
        dims[-1] = max(dims[-1], 2)
        activations.append("softmax")
    else:
        activations.append(draw(st.sampled_from(nn_core.ACTIVATIONS)))
    seed = draw(st.integers(0, 2**32 - 1))
    net = init_dense_net(dims, activations, seed=seed)
    n = draw(st.integers(1, 12))
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, dims[0]))
    targets = (rng.normal(size=(n, dims[-1])) if loss == "mse"
               else rng.integers(0, dims[-1], size=n))
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                      batch_size=draw(st.integers(1, 5)), epochs=draw(st.integers(1, 3)),
                      seed=seed, optimizer=draw(st.sampled_from(["adam", "sgd"])))
    return net, x, targets, loss, cfg


@given(run=training_runs())
def test_train_matches_the_out_of_place_loop_bit_for_bit(run):
    net, x, targets, loss, cfg = run
    with np.errstate(all="ignore"):
        trained, history = train(net, x, targets, loss, cfg)
        expected, batches = _reference_train(net, x, targets, loss, cfg)
    _assert_same_weights(trained, expected)
    n = x.shape[0]
    assert history == [sum(value * size for value, size in epoch) / n for epoch in batches]


class _CountingPool(nn_core.ThreadPoolExecutor):
    """ThreadPoolExecutor that records how many were made and their sizes."""
    sizes: list[int] = []

    def __init__(self, max_workers):
        _CountingPool.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.fixture
def two_workers(monkeypatch):
    """Two usable CPUs even on a one-CPU machine, and a spy on the pool."""
    monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_CountingPool, "sizes", [])
    monkeypatch.setattr(nn_core, "ThreadPoolExecutor", _CountingPool)
    return _CountingPool.sizes


def test_adam_split_over_two_workers_matches_the_out_of_place_loop(two_workers):
    net = init_dense_net([400, 300, 40], ["relu", "sigmoid"], seed=5)
    n_params = sum(l.w.size + l.b.size for l in net.layers)
    assert n_params > 2 * nn_core.ADAM_BLOCK  # three blocks, the last one short
    x = np.random.Generator(np.random.PCG64(5)).uniform(size=(37, 400))
    y = np.random.Generator(np.random.PCG64(6)).uniform(size=(37, 40))
    cfg = TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, seed=5)
    threads = threading.active_count()
    trained, _ = train(net, x, y, "mse", cfg)
    assert two_workers == [1]  # one pool thread besides the caller
    assert threading.active_count() == threads
    _assert_same_weights(trained, _reference_train(net, x, y, "mse", cfg)[0])
    # a net of one block gets no pool
    train(init_dense_net([3, 2], ["identity"], seed=0), x[:, :3], y[:, :2], "mse", cfg)
    assert two_workers == [1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverged_adam_leaves_no_thread_behind(two_workers):
    net = init_dense_net([400, 300, 40], ["identity", "identity"], seed=5)
    x = np.full((4, 400), 1e5)
    cfg = TrainConfig(learning_rate=1e200, batch_size=1, epochs=2, seed=0)
    threads = threading.active_count()
    with pytest.raises(TrainingDivergedError):
        train(net, x, np.zeros((4, 40)), "mse", cfg)
    assert two_workers == [1]
    assert threading.active_count() == threads


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
