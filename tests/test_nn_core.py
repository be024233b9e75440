import contextlib
import functools
import json
import logging
import os
import re
import shlex
import shutil
import tempfile
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    a = init_dense_net([10, 5, 2], ["relu", "identity"], seed=9)
    b = init_dense_net([10, 5, 2], ["relu", "identity"], seed=9)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w, lb.w)
        assert np.all(la.b == 0.0)
    assert np.abs(a.layers[0].w).max() <= 1.0 / np.sqrt(10)
    c = init_dense_net([10, 5, 2], ["relu", "identity"], seed=10)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


@given(fan_in=st.integers(1, 600), fan_out=st.integers(1, 3 * nn_core.INIT_BLOCK + 5),
       seed=st.integers(0, 2**32 - 1))
def test_initial_first_layer_is_layer_0_of_init_dense_net_block_by_block(fan_in, fan_out, seed):
    """Drawn INIT_BLOCK rows at a time, the blocks in order are
    init_dense_net's layer 0, bit for bit, whatever the layers after it."""
    want = init_dense_net([fan_in, fan_out, 3], ["relu", "identity"], seed=seed).layers[0].w
    blocks = list(nn_core.initial_first_layer(seed, fan_in, fan_out))
    assert [lo for lo, _ in blocks] == list(range(0, fan_out, nn_core.INIT_BLOCK))
    assert all(len(rows) <= nn_core.INIT_BLOCK for _, rows in blocks)
    got = np.concatenate([rows for _, rows in blocks])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def _kernel_loads() -> bool:
    """Whether the compiled Adam step loads: False where no C compiler is
    found; fails where one is and the step still does not load."""
    if nn_core._adam_kernel() is not None:
        return True
    if shutil.which(nn_core._compiler()[0]) is None:
        return False
    pytest.fail("a C compiler is found, but the compiled Adam step did not load")


def _require_kernel():
    if not _kernel_loads():
        pytest.skip("no C compiler: the compiled Adam step cannot be built")


def adam_paths() -> tuple[str, ...]:
    """numpy's _adam_block forced, always, then the compiled step where a
    C compiler is found."""
    return ("numpy", "kernel") if _kernel_loads() else ("numpy",)


@contextlib.contextmanager
def adam_path(name):
    """Train with the compiled Adam step ("kernel") or with numpy's
    _adam_block forced ("numpy")."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "numpy":
            mp.setattr(nn_core, "_adam_kernel", lambda: None)
        yield


def _reference_train(net, x, targets, loss, cfg):
    """The out-of-place training loop train() replaced, kept as its oracle:
    fresh gradient arrays every step and Adam as whole-array expressions.
    Also returns every batch's loss and size."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    net = net.copy()
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    b1, b2, eps = nn_core.ADAM_BETA1, nn_core.ADAM_BETA2, nn_core.ADAM_EPS
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
            t += 1
            corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k, layer in enumerate(net.layers):
                m_w[k] = b1 * m_w[k] + (1 - b1) * grads_w[k]
                v_w[k] = b2 * v_w[k] + (1 - b2) * grads_w[k] ** 2
                m_b[k] = b1 * m_b[k] + (1 - b1) * grads_b[k]
                v_b[k] = b2 * v_b[k] + (1 - b2) * grads_b[k] ** 2
                layer.w -= cfg.learning_rate * (m_w[k] / corr1) / (np.sqrt(v_w[k] / corr2) + eps)
                layer.b -= cfg.learning_rate * (m_b[k] / corr1) / (np.sqrt(v_b[k] / corr2) + eps)
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
                      seed=seed)
    return net, x, targets, loss, cfg


@given(run=training_runs())
def test_train_matches_the_out_of_place_loop_bit_for_bit(run):
    net, x, targets, loss, cfg = run
    with np.errstate(all="ignore"):
        expected, batches = _reference_train(net, x, targets, loss, cfg)
        for adam in adam_paths():
            with adam_path(adam):
                trained, history = train(net, x, targets, loss, cfg)
            _assert_same_weights(trained, expected)
            n = x.shape[0]
            assert history == [sum(value * size for value, size in epoch) / n
                               for epoch in batches]


def _padded_rows(n, n_in, width, seed):
    """n rows of byte values / 255 in the first `width` of n_in columns,
    zero after; column width - 1 is nonzero in row 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros((n, n_in))
    x[:, :width] = rng.integers(0, 256, size=(n, width)) / 255.0
    if width:
        x[0, width - 1] = 1.0
    return x


def _sum_over_every_chunk(x, wT, b):
    """chunked_affine's definition with no chunk skipped."""
    chunk = nn_core.CHUNK
    z = x[:, :chunk] @ wT[:chunk]
    for lo in range(chunk, x.shape[1], chunk):
        z = z + x[:, lo:lo + chunk] @ wT[lo:lo + chunk]
    return z + b


@given(n=st.integers(1, 64), n_in=st.integers(1, 1600), out=st.sampled_from([1, 3, 64, 512]),
       width_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_chunked_affine_equals_the_sum_over_every_chunk(n, n_in, out, width_frac, seed):
    width = round(width_frac * n_in)
    x = _padded_rows(n, n_in, width, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    wT, b = rng.uniform(-1, 1, size=(n_in, out)), rng.uniform(-1, 1, size=out)
    chunk = nn_core.CHUNK
    assert nn_core.live_width(x) == min(n_in, -(-width // chunk) * chunk)
    assert np.array_equal(nn_core.chunked_affine(x, wT, b), _sum_over_every_chunk(x, wT, b))


@given(n=st.integers(2, 64), width=st.integers(0, 256), seed=st.integers(0, 2**32 - 1))
def test_chunked_affine_equals_the_full_product_within_one_chunk(n, width, seed):
    """At the payload encoder's layer-0 shape (1500 -> 512), a padded input
    whose live columns fit in one chunk gets the bits of the plain product
    with the weights C-ordered. One-row products go to gemv, whose sliced
    call differs from the full one, so they are not covered."""
    x = _padded_rows(n, 1500, width, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    w, b = rng.uniform(-0.03, 0.03, size=(512, 1500)), rng.uniform(-0.1, 0.1, size=512)
    assert np.array_equal(nn_core.chunked_affine(x, np.asfortranarray(w).T, b), x @ w.T + b)


@st.composite
def padded_training_runs(draw, n_in, width_max, min_batch_rows):
    """A net on an n_in-wide input that is zero past its first width
    columns (at most width_max), data, and a TrainConfig whose batches all
    have at least min_batch_rows rows."""
    loss = draw(st.sampled_from(nn_core.LOSSES))
    hidden = draw(st.sampled_from(["relu", "sigmoid", "tanh", "identity"]))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    net = init_dense_net([n_in, 512, k], [hidden, "softmax" if loss == "cross_entropy"
                                          else draw(st.sampled_from(nn_core.ACTIVATIONS))],
                         seed=seed)
    batch = draw(st.integers(max(1, min_batch_rows), 6))
    n = draw(st.integers(max(2, min_batch_rows), 12).filter(
        lambda n: n % batch == 0 or n % batch >= min_batch_rows))
    x = _padded_rows(n, n_in, draw(st.integers(0, width_max)), seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    targets = (rng.normal(size=(n, k)) if loss == "mse" else rng.integers(0, k, size=n))
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                      batch_size=batch, epochs=draw(st.integers(1, 2)), seed=seed)
    return net, x, targets, loss, cfg


@settings(max_examples=12)
@given(run=padded_training_runs(n_in=1500, width_max=256, min_batch_rows=2))
def test_padded_training_matches_the_out_of_place_loop_bit_for_bit(run):
    net, x, targets, loss, cfg = run
    with np.errstate(all="ignore"):
        expected, batches = _reference_train(net, x, targets, loss, cfg)
        for adam in adam_paths():
            with adam_path(adam):
                trained, history = train(net, x, targets, loss, cfg)
            assert not trained.layers[0].w.flags.c_contiguous  # layer 0 stored transposed
            _assert_same_weights(trained, expected)
            n = x.shape[0]
            assert history == [sum(value * size for value, size in epoch) / n
                               for epoch in batches]


class _SizedAdam(nn_core._Adam):
    """_Adam that records the size of every parameter range it updates."""
    sizes: list[int] = []

    def __init__(self, params, grads, cfg):
        _SizedAdam.sizes.append(params.size)
        super().__init__(params, grads, cfg)


@settings(max_examples=15)
@given(run=padded_training_runs(n_in=700, width_max=512, min_batch_rows=1))
def test_padded_training_never_updates_the_dead_columns(run):
    net, x, targets, loss, cfg = run
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(_SizedAdam, "sizes", [])
        mp.setattr(nn_core, "_Adam", _SizedAdam)
        first, history = train(net, x, targets, loss, cfg)
        second, history2 = train(net, x, targets, loss, cfg)
        sizes = _SizedAdam.sizes
    live = nn_core.live_width(x)
    assert live < 700
    w0 = net.layers[0].w
    assert np.array_equal(first.layers[0].w[:, live:], w0[:, live:])
    _assert_same_weights(first, second)
    assert history == history2
    n_params = sum(l.w.size + l.b.size for l in net.layers)
    assert sizes == [n_params - (700 - live) * w0.shape[0]] * 2


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
    expected = _reference_train(net, x, y, "mse", cfg)[0]
    for adam in adam_paths():
        two_workers.clear()
        threads = threading.active_count()
        with adam_path(adam):
            trained, _ = train(net, x, y, "mse", cfg)
            assert two_workers == [1]  # one pool thread besides the caller
            assert threading.active_count() == threads
            _assert_same_weights(trained, expected)
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


# zero, the smallest subnormals, the largest normal and huge gradients
_SPECIAL_GRADIENTS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308,
                      1e300, -1e300)


# np.errstate does not reach _Adam's pool thread, which warns on huge gradients
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(size=st.one_of(st.integers(1, 70), st.integers(1, 2 * nn_core.ADAM_BLOCK + 5)),
       lr=st.floats(1e-8, 10.0), t0=st.integers(0, 10**6), steps=st.integers(1, 4),
       specials=st.lists(st.sampled_from(_SPECIAL_GRADIENTS), max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_the_compiled_adam_step_is_adam_block_bit_for_bit(size, lr, t0, steps, specials, seed):
    """_Adam with the kernel and with numpy's _adam_block forced, carrying
    m and v over several steps from step t0 on, on gradients from 1e-320 to
    1e300 in scale with zero, subnormal and huge values placed among them."""
    _require_kernel()
    rng = np.random.Generator(np.random.PCG64(seed))
    params = rng.normal(size=size)
    adams = []
    for adam in ("kernel", "numpy"):
        with adam_path(adam):
            adams.append(nn_core._Adam(params.copy(), np.empty(size),
                                       TrainConfig(learning_rate=lr)))
        adams[-1].t = t0
    assert adams[0].kernel is not None and adams[1].kernel is None
    try:
        with np.errstate(all="ignore"):
            for _ in range(steps):
                g = rng.normal(size=size) * 10.0 ** float(rng.integers(-320, 301))
                g[rng.integers(0, size, size=len(specials))] = specials
                for adam in adams:
                    adam.grads[...] = g
                    adam.step()
    finally:
        for adam in adams:
            adam.close()
    kernel, numpy_ = adams
    for name in ("params", "m", "v"):
        assert np.array_equal(getattr(kernel, name).view(np.uint64),
                              getattr(numpy_, name).view(np.uint64)), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_adam_past_step_355_skips_dividing_by_corr1_and_keeps_the_out_of_place_bits():
    """From step 356 on, corr1 = 1 - b1**t is 1.0, and both paths leave out
    m / corr1: their steps 354-358 and 10,000-10,001 (a NaN, a subnormal,
    zeros and huge values among the gradients) are the out-of-place
    update's bit for bit."""
    b1, b2, eps, lr = nn_core.ADAM_BETA1, nn_core.ADAM_BETA2, nn_core.ADAM_EPS, 1e-3
    assert 1.0 - b1 ** 355 < 1.0 == 1.0 - b1 ** 356
    rng = np.random.Generator(np.random.PCG64(11))
    params = rng.normal(size=1027)
    for path in adam_paths():
        with adam_path(path):
            adam = nn_core._Adam(params.copy(), np.empty(params.size),
                                 TrainConfig(learning_rate=lr))
        p, m, v = params.copy(), np.zeros(params.size), np.zeros(params.size)
        try:
            with np.errstate(all="ignore"):
                for t in (354, 355, 356, 357, 358, 10_000, 10_001):
                    g = rng.normal(size=params.size) * 10.0 ** rng.integers(-12, 4, params.size)
                    g[:7] = np.nan, 5e-324, -2.5e-310, 0.0, -0.0, 1e300, -1e150
                    adam.t, adam.grads[...] = t - 1, g
                    adam.step()
                    corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
                    m = b1 * m + (1 - b1) * g
                    v = b2 * v + (1 - b2) * g ** 2
                    p = p - lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
                    for name, want in (("params", p), ("m", m), ("v", v)):
                        assert np.array_equal(getattr(adam, name).view(np.uint64),
                                              want.view(np.uint64)), (path, t, name)
        finally:
            adam.close()


def _fresh_adam_kernel(monkeypatch, tmp, compiler=None):
    """Point _adam_kernel's memo, temp directory and, when given, its
    compiler lookup at new values for this test."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    if compiler is not None:
        monkeypatch.setattr(nn_core, "_compiler", lambda: compiler)
    monkeypatch.setattr(nn_core, "_adam_kernel",
                        functools.cache(nn_core._adam_kernel.__wrapped__))


def test_without_a_compiler_training_falls_back_with_the_same_bits(tmp_path, monkeypatch,
                                                                     caplog):
    net = init_dense_net([30, 12, 30], ["relu", "sigmoid"], seed=3)
    x = np.random.Generator(np.random.PCG64(3)).uniform(size=(20, 30))
    cfg = TrainConfig(learning_rate=1e-2, batch_size=6, epochs=2, seed=3)
    expected, batches = _reference_train(net, x, x, "mse", cfg)
    _fresh_adam_kernel(monkeypatch, tmp_path, [str(tmp_path / "no-such-cc")])
    with caplog.at_level(logging.INFO, logger="ride.nn_core"):
        trained, history = train(net, x, x, "mse", cfg)
        train(net, x, x, "mse", cfg)
    assert caplog.messages == [f"Adam: numpy (no compiler '{tmp_path / 'no-such-cc'}')"]
    _assert_same_weights(trained, expected)
    assert history == [sum(value * size for value, size in epoch) / 20 for epoch in batches]
    assert list(tmp_path.iterdir()) == []


def test_no_writable_temp_directory_falls_back(tmp_path, monkeypatch, caplog):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    _fresh_adam_kernel(monkeypatch, not_a_dir)
    with caplog.at_level(logging.INFO, logger="ride.nn_core"):
        assert nn_core._adam_kernel() is None
    [message] = caplog.messages
    assert message.startswith("Adam: numpy (") and str(not_a_dir) in message


def test_the_kernel_is_built_once_per_process_and_leaves_no_file(tmp_path, monkeypatch,
                                                                  caplog):
    _require_kernel()
    _fresh_adam_kernel(monkeypatch, tmp_path)
    with caplog.at_level(logging.INFO, logger="ride.nn_core"):
        assert nn_core._adam_kernel() is not None
        assert nn_core._adam_kernel() is not None
    cc = shlex.join(nn_core._compiler())
    assert caplog.messages == [f"Adam: compiled kernel (built by {cc})"]
    assert list(tmp_path.iterdir()) == []


def test_a_kernel_that_rounds_otherwise_fails_the_probe_and_falls_back(tmp_path, monkeypatch,
                                                                      caplog):
    _require_kernel()
    _fresh_adam_kernel(monkeypatch, tmp_path)
    # lr applied before the bias correction: mathematically equal, not bit for bit
    ordered = "((m[i] / corr1) * lr)"
    assert ordered in nn_core._ADAM_C
    monkeypatch.setattr(nn_core, "_ADAM_C", nn_core._ADAM_C.replace(ordered, "((m[i] * lr) / corr1)"))
    with caplog.at_level(logging.INFO, logger="ride.nn_core"):
        assert nn_core._adam_kernel() is None
    assert caplog.messages == ["Adam: numpy (the compiled step disagrees with numpy's)"]
    assert list(tmp_path.iterdir()) == []


def test_train_frees_a_net_built_in_its_argument_list(monkeypatch):
    """The untrained net is copied into the flat buffer and not referenced
    after, so one passed straight from init_dense_net is gone before the
    first step."""
    refs, alive = [], []

    def untrained():
        net = init_dense_net([4, 3, 4], ["tanh", "identity"], seed=1)
        refs.append(weakref.ref(net))
        return net

    original = nn_core._backward

    def spy(*args):
        alive.append(refs[0]() is not None)
        return original(*args)
    monkeypatch.setattr(nn_core, "_backward", spy)
    x = np.random.Generator(np.random.PCG64(1)).normal(size=(6, 4))
    train(untrained(), x, x, "mse", TrainConfig(epochs=2, batch_size=3, seed=1))
    assert alive and not any(alive)


def test_train_does_not_mutate_input_net():
    net = init_dense_net([2, 2], ["identity"], seed=0)
    w_before = net.layers[0].w.copy()
    train(net, np.ones((4, 2)), np.zeros((4, 2)), "mse",
          TrainConfig(learning_rate=0.1, epochs=2))
    np.testing.assert_array_equal(net.layers[0].w, w_before)


def test_adam_single_step_hand_computed():
    # one weight, one sample: w=2, x=1, target=0, mse loss
    # pred=2, dL/dpred = 2*(2-0)/1 = 4, dW = 4*1, db = 4
    net = DenseNet([Layer(np.array([[2.0]]), np.array([0.0]), "identity")])
    lr = 0.01
    cfg = TrainConfig(learning_rate=lr, batch_size=1, epochs=1, seed=0)
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
    x = np.array([[1e150]])  # an Adam step moves w by about lr: w * x must overflow
    target = np.array([[0.0]])
    cfg = TrainConfig(learning_rate=1e30, batch_size=1, epochs=8, seed=0)
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


@given(net=dense_nets(), rows=st.integers(1, 5), single=st.booleans(),
       wide=st.sampled_from([None, 3, 300, 700]), width_frac=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_forward_is_the_last_activation_of_the_trace_bit_for_bit(net, rows, single, wide,
                                                                  width_frac, seed):
    """forward, which keeps no per-layer lists and writes each activation
    over its product, gives the bits of _forward_trace (the pass _backward
    runs) for every activation, and never writes its input. With `wide`,
    layer 0 is stored transposed with that input width and takes an input
    that is zero-padded past some column, or narrower than the layer."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if wide is not None:
        first = net.layers[0]
        assume(first.w.shape[0] > 1)  # a one-row w is C- and F-contiguous at once
        w = np.asfortranarray(rng.uniform(-1, 1, size=(first.w.shape[0], wide)))
        net = DenseNet([Layer(w, first.b, first.activation)] + net.layers[1:])
        assert nn_core.stored_transposed(net.layers[0])
    width = net.input_dim if wide is None else max(1, round(width_frac * wide))
    x = _padded_rows(rows, width, round(width_frac * width), seed)
    x = x[0] if single else x
    before = x.copy()
    with np.errstate(all="ignore"):
        got = forward(net, x)
        want = nn_core._forward_trace(net, np.atleast_2d(x))[1][-1]
    want = want[0] if single else want
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == before.tobytes()


@given(pred=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                       elements=st.floats(-1e150, 1e150)),
       seed=st.integers(0, 2**32 - 1))
def test_loss_mse_is_the_mean_row_sum_of_squares_bit_for_bit(pred, seed):
    target = np.random.Generator(np.random.PCG64(seed)).normal(scale=1e3, size=pred.shape)
    before = pred.copy(), target.copy()
    with np.errstate(over="ignore"):
        want = float(((np.atleast_2d(pred) - np.atleast_2d(target)) ** 2).sum(axis=1).mean())
        got = loss_mse(pred, target)
    assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))
    assert pred.tobytes() == before[0].tobytes() and target.tobytes() == before[1].tobytes()


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


def _masked_sigmoid(z):
    """The sigmoid as written before the in-place form, kept as its oracle:
    split by sign with boolean-mask gathers and scatters."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_activation = nn_core.apply_activation


def _masked_activation(name, z, out=None):
    assert out is None
    return _masked_sigmoid(z) if name == "sigmoid" else _activation(name, z)


_SIGMOID_EDGES = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308,
                           np.inf, -np.inf, 5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8])


@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                    elements=st.floats(allow_nan=False)),
       scale=st.sampled_from([1.0, 10.0, 1e3]))
def test_sigmoid_equals_the_masked_formula_bit_for_bit(z, scale):
    z = np.concatenate([z.ravel() / scale, _SIGMOID_EDGES])
    with np.errstate(over="ignore"):
        want = _masked_sigmoid(z)
        got = nn_core.apply_activation("sigmoid", z)
        in_place = z.copy()
        same = nn_core.apply_activation("sigmoid", in_place, out=in_place)
    assert same is in_place
    for a in (got, same):  # the same bits, sign bits included
        assert np.array_equal(a.view(np.uint64), want.view(np.uint64))


def test_sigmoid_of_nan_is_nan():
    z = np.array([np.nan, -np.nan, 1.0, np.nan])
    got = nn_core.apply_activation("sigmoid", z)
    assert np.isnan(got[[0, 1, 3]]).all()  # only the sign bit may differ
    assert got[2] == _masked_sigmoid(z)[2]


@pytest.mark.parametrize("name", nn_core.ACTIVATIONS)
def test_activation_into_out_equals_the_new_array(name):
    z = np.random.Generator(np.random.PCG64(4)).normal(scale=5, size=(6, 7))
    want = nn_core.apply_activation(name, z.copy())
    out = np.empty_like(z)
    assert nn_core.apply_activation(name, z, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(nn_core.apply_activation(name, z, out=z), want)  # in place


@pytest.mark.parametrize("n_in,h,width", [(24, 16, 24), (1500, 512, 40)])
def test_autoencoder_training_matches_the_loop_with_the_masked_sigmoid(n_in, h, width):
    """train() on a small payload autoencoder (relu, sigmoid, relu, sigmoid)
    gives the weights of the out-of-place loop run with the masked sigmoid,
    unpadded, and padded at the encoder's layer-0 shape (see
    test_chunked_affine_equals_the_full_product_within_one_chunk)."""
    x = _padded_rows(20, n_in, width, seed=9)
    net = init_dense_net([n_in, h, 4, 16, n_in], ["relu", "sigmoid", "relu", "sigmoid"],
                         seed=9)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=6, epochs=3, seed=9)
    trained, history = train(net, x, x, "mse", cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn_core, "apply_activation", _masked_activation)
        expected, batches = _reference_train(net, x, x, "mse", cfg)
    assert nn_core.stored_transposed(trained.layers[0]) == (width < n_in)
    _assert_same_weights(trained, expected)
    assert history == [sum(value * size for value, size in epoch) / 20 for epoch in batches]


@given(name=st.sampled_from(nn_core.ACTIVATIONS), cols=st.sampled_from([1, 3, 100, 1500]),
       blocks=st.integers(0, 2), extra=st.integers(-2, 2), strided=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_row_block_activation_equals_one_call_bit_for_bit(name, cols, blocks, extra,
                                                          strided, seed):
    """affine_into applies the activation one block of rows at a time once
    the output passes ACTIVATION_BLOCK elements: at row counts on both
    sides of a block boundary, for every activation, into a new array or
    into the left half of a wider buffer (as the fold writes), it gives the
    bits of one activation call on the whole product."""
    n = max(1, blocks * (nn_core.ACTIVATION_BLOCK // cols) + extra)
    rng = np.random.Generator(np.random.PCG64(seed))
    layer = Layer(rng.normal(scale=4.0, size=(cols, 3)), rng.normal(size=cols), name)
    x = rng.normal(scale=50.0, size=(n, 3))
    with np.errstate(all="ignore"):
        want = nn_core.apply_activation(name, nn_core._product(layer, x))
        out = np.empty((n, 2 * cols))[:, :cols] if strided else None
        got = nn_core.affine_into(layer, x, out=out)
    assert out is None or got is out
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@given(pred=hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                       elements=st.floats(-1e150, 1e150)),
       width_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_a_narrow_mse_target_counts_as_zero_padded_bit_for_bit(pred, width_frac, seed):
    """The training loss on a target narrower than pred gives the value
    loss_mse and the gradient 2.0 * (pred - target) / n of the target
    padded with zeros to pred's width."""
    n, m = pred.shape
    width = round(width_frac * m)
    target = np.random.Generator(np.random.PCG64(seed)).normal(scale=1e3, size=(n, width))
    padded = np.zeros_like(pred)
    padded[:, :width] = target
    with np.errstate(over="ignore"):
        value, grad = nn_core._loss_value_and_grad("mse", pred, target)
        want_value = loss_mse(pred, padded)
        want_grad = 2.0 * (pred - padded) / n
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


@settings(max_examples=12)
@given(run=padded_training_runs(n_in=700, width_max=512, min_batch_rows=1),
       autoencoder=st.booleans())
def test_training_on_the_live_width_equals_the_padded_batch_bit_for_bit(run, autoencoder):
    """train() on x cut at live_width(x), as train_autoencoder passes it,
    gives the weights and history of the zero-padded x; so does an mse
    target cut the same way (the autoencoder's target is its input)."""
    net, x, targets, loss, cfg = run
    if autoencoder:
        net = init_dense_net([700, 16, 4, 16, 700], ["relu", "sigmoid", "relu", "sigmoid"],
                             seed=cfg.seed)
        targets, loss = x, "mse"
    live = nn_core.live_width(x)
    narrow = x[:, :live]
    with np.errstate(all="ignore"):
        trained, history = train(net, narrow, narrow if autoencoder else targets, loss, cfg)
        expected, want = train(net, x, targets, loss, cfg)
    _assert_same_weights(trained, expected)
    assert history == want
