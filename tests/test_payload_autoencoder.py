"""Payload autoencoder: scaling, shapes, trainability, persistence, memory."""
import dataclasses
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ride import nn_core, payload_autoencoder as pa
from ride.nn_core import DenseNet, TrainConfig
from test_nn_core import (_SizedAdam, _assert_same_weights, _masked_activation, _reference_train,
                          _transposed, adam_path, adam_paths)


def _payloads(n, n_p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, n_p)).astype(np.float64)


def _bundle(n_p=24, n_b=4, h=16, seed=0, epochs=0, x=None):
    x = _payloads(12, n_p, seed=seed) if x is None else x
    cfg = TrainConfig(epochs=epochs, seed=seed)
    return pa.train_autoencoder(x, n_b=n_b, h=h, cfg=cfg)


def test_encode_scales_bytes_before_the_network():
    # Identity-ish check: a hand-built 2->1 encoder sees values/255.
    w = np.array([[1.0, 1.0]])
    enc = DenseNet([nn_core.Layer(w=w, b=np.zeros(1), activation="identity")])
    bundle = pa.AutoencoderBundle(encoder=enc, n_p=2, n_b=1, h=1, final_train_mse=0.0)
    out = pa.encode_matrix(bundle, np.array([255.0, 0.0]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0)  # 255/255 + 0/255


def test_encode_matrix_matches_single_encode():
    bundle = _bundle()
    x = _payloads(5, bundle.n_p, seed=3)
    batch = pa.encode_matrix(bundle, x)
    assert batch.shape == (5, bundle.n_b)
    for i in range(5):
        single = pa.encode_matrix(bundle, x[i])
        np.testing.assert_allclose(batch[i], single[0], rtol=0, atol=1e-12)


def test_encoder_decoder_dims():
    bundle = _bundle(n_p=24, n_b=4, h=16)
    assert bundle.encoder.input_dim == 24 and bundle.encoder.output_dim == 4
    assert [l.w.shape for l in bundle.encoder.layers] == [(16, 24), (4, 16)]
    assert not hasattr(bundle, "decoder")  # the decoder serves training only
    with pytest.raises(ValueError):
        pa.AutoencoderBundle(encoder=bundle.encoder, n_p=24, n_b=5, h=16,
                             final_train_mse=0.0)


def _spy_reconstruction_error(monkeypatch):
    """Record the (net, payloads) train_autoencoder measures its error on."""
    calls = []
    original = pa.reconstruction_error

    def spy(net, payloads):
        calls.append((net, payloads))
        return original(net, payloads)
    monkeypatch.setattr(pa, "reconstruction_error", spy)
    return calls


def test_training_reduces_reconstruction_error(monkeypatch):
    x = _payloads(40, 24, seed=1)
    before = _bundle(x=x, epochs=0, seed=1)
    calls = _spy_reconstruction_error(monkeypatch)
    after = pa.train_autoencoder(x, n_b=4, h=16,
                                 cfg=TrainConfig(epochs=60, learning_rate=3e-3, seed=1))
    assert after.final_train_mse < before.final_train_mse
    # error is reported in scaled [0,1] space and recomputable from the
    # full trained net, whose first two layers are the kept encoder
    [(net, _)] = calls
    assert [l.w.shape for l in net.layers] == [(16, 24), (4, 16), (16, 4), (24, 16)]
    for kept, trained in zip(after.encoder.layers, net.layers[:2]):
        np.testing.assert_array_equal(kept.w, trained.w)
        np.testing.assert_array_equal(kept.b, trained.b)
    assert after.final_train_mse == pytest.approx(
        pa.reconstruction_error(net, x), abs=1e-15)


def test_training_is_seed_deterministic():
    x = _payloads(20, 24, seed=2)
    cfg = TrainConfig(epochs=5, seed=9)
    a = pa.train_autoencoder(x, n_b=4, h=8, cfg=cfg)
    b = pa.train_autoencoder(x, n_b=4, h=8, cfg=cfg)
    for la, lb in zip(a.encoder.layers, b.encoder.layers):
        np.testing.assert_array_equal(la.w, lb.w)
    assert a.final_train_mse == b.final_train_mse


def test_sample_cap_subsamples_training_but_not_reporting(monkeypatch):
    x = _payloads(30, 24, seed=4)
    calls = _spy_reconstruction_error(monkeypatch)
    capped = pa.train_autoencoder(x, n_b=4, h=8, cfg=TrainConfig(epochs=3, seed=0),
                                  sample_cap=10)
    # reported error still covers the full batch: recompute and compare
    [(net, measured)] = calls
    assert measured is x
    assert capped.final_train_mse == pytest.approx(
        pa.reconstruction_error(net, x), abs=1e-15)


def test_training_rows_are_the_rows_the_autoencoder_trains_on(monkeypatch):
    x = _payloads(30, 24, seed=4)
    seen = []
    original = nn_core.train

    def spy(net, inputs, targets, loss, cfg):
        seen.append(inputs)
        return original(net, inputs, targets, loss, cfg)
    monkeypatch.setattr(nn_core, "train", spy)
    pa.train_autoencoder(x, n_b=4, h=8, cfg=TrainConfig(epochs=1, seed=3), sample_cap=10)
    rows = pa.training_rows(x, 10, 3)
    assert rows.shape == (10, 24)
    np.testing.assert_array_equal(seen[0], rows / pa.BYTE_SCALE)
    assert pa.training_rows(x, 30, 3) is x


def test_training_holds_at_most_three_float64_copies_of_the_batch(monkeypatch):
    """numpy reports its buffers to tracemalloc. A uint8 batch is scaled
    once for training, up to its live width; that copy is gone before the
    error is measured, which holds the output and the scaled live columns;
    the untrained net is freed once training has copied it. So the peak
    is under one float64 copy of the batch plus the flat parameters, their
    gradients and Adam's m and v. Adam runs one worker here, whose scratch
    (two blocks, 1 MB) fits the margin; each further worker adds 1 MB."""
    monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(8)
    x = np.zeros((400, 1500), dtype=np.uint8)  # one live chunk, as the fixture's payloads
    x[:, :200] = rng.integers(0, 256, size=(400, 200))
    n_params = sum(a * b + b for a, b in zip([1500, 64, 16, 64], [64, 16, 64, 1500]))
    bound = x.size * 8 + 4 * n_params * 8
    tracemalloc.start()
    try:
        pa.train_autoencoder(x, n_b=16, h=64, cfg=TrainConfig(epochs=1, seed=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def _padded_payloads(n, n_p, width, seed):
    """n uint8 rows of n_p bytes, random in the first `width` columns and
    zero after; column width - 1 is nonzero in row 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros((n, n_p), dtype=np.uint8)
    x[:, :width] = rng.integers(0, 256, size=(n, width))
    if width:
        x[0, width - 1] = 255
    return x


@st.composite
def padded_payload_runs(draw, n_p, width_max, min_batch_rows):
    """Payloads n_p wide that are zero past their first width columns (at
    most width_max), a bottleneck width and a TrainConfig whose batches all
    have at least min_batch_rows rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    batch = draw(st.integers(max(1, min_batch_rows), 6))
    n = draw(st.integers(max(2, min_batch_rows), 12).filter(
        lambda n: n % batch == 0 or n % batch >= min_batch_rows))
    payloads = _padded_payloads(n, n_p, draw(st.integers(0, width_max)), seed)
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([1e-3, 1e-2, 1e-1])),
                      batch_size=batch, epochs=draw(st.integers(1, 2)), seed=seed)
    return payloads, draw(st.integers(2, 5)), cfg


def _autoencoder(n_p, h, n_b, seed):
    """The full-width net train_autoencoder starts from, in C order."""
    return nn_core.init_dense_net([n_p, h, n_b, h, n_p], ["relu", "sigmoid", "relu", "sigmoid"],
                                  seed=seed)


def _spy_train(monkeypatch):
    """Record the net each nn_core.train call returns."""
    trained = []
    original = nn_core.train

    def spy(*args):
        net, history = original(*args)
        trained.append(net)
        return net, history
    monkeypatch.setattr(nn_core, "train", spy)
    return trained


def _assert_trained_as(bundle, trained, expected):
    """bundle's encoder, and the net nn_core.train returned, are those of
    expected, a full-width autoencoder: trained's layer 0 is expected's up
    to live_input_width, the encoder's all of it."""
    live = bundle.live_input_width
    assert trained.layers[0].w.shape[1] == live
    assert np.array_equal(trained.layers[0].w, expected.layers[0].w[:, :live])
    _assert_same_weights(DenseNet(trained.layers[1:]), DenseNet(expected.layers[1:]))
    _assert_same_weights(bundle.encoder, DenseNet(expected.layers[:2]))


@settings(max_examples=12)
@given(run=padded_payload_runs(n_p=1500, width_max=256, min_batch_rows=2))
def test_padded_training_matches_the_out_of_place_loop_bit_for_bit(run):
    """train_autoencoder on payloads of one live chunk gives the weights
    and history of the out-of-place loop on the zero-padded full-width net
    (at the encoder's layer-0 shape, see test_nn_core's
    test_chunked_affine_equals_the_full_product_within_one_chunk)."""
    payloads, n_b, cfg = run
    x = pa._scaled(payloads)
    with np.errstate(all="ignore"):
        expected, batches = _reference_train(_autoencoder(1500, 512, n_b, cfg.seed), x, x,
                                             "mse", cfg)
        for adam in adam_paths():
            with pytest.MonkeyPatch.context() as mp, adam_path(adam):
                trained = _spy_train(mp)
                bundle = pa.train_autoencoder(payloads, n_b=n_b, h=512, cfg=cfg)
            assert nn_core.stored_transposed(bundle.encoder.layers[0])
            _assert_trained_as(bundle, trained[0], expected)
            assert bundle.loss_curve == [sum(value * size for value, size in epoch) / len(x)
                                         for epoch in batches]


@settings(max_examples=15)
@given(run=padded_payload_runs(n_p=700, width_max=512, min_batch_rows=1))
def test_padded_training_never_updates_the_dead_columns(run):
    """Adam updates only the parameters of the live-width net, and the
    encoder's columns past the live width are init_dense_net's."""
    payloads, n_b, cfg = run
    h = 64
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(_SizedAdam, "sizes", [])
        mp.setattr(nn_core, "_Adam", _SizedAdam)
        first = pa.train_autoencoder(payloads, n_b=n_b, h=h, cfg=cfg)
        second = pa.train_autoencoder(payloads, n_b=n_b, h=h, cfg=cfg)
        sizes = _SizedAdam.sizes
    live = first.live_input_width
    assert live == nn_core.live_width(payloads) < 700
    initial = _autoencoder(700, h, n_b, cfg.seed)
    w0 = first.encoder.layers[0].w
    assert np.array_equal(w0[:, live:].view(np.uint64),
                          initial.layers[0].w[:, live:].view(np.uint64))
    _assert_same_weights(first.encoder, second.encoder)
    assert first.loss_curve == second.loss_curve
    n_params = sum(l.w.size + l.b.size for l in initial.layers)
    assert sizes == [n_params - (700 - live) * h] * 2


def test_padded_autoencoder_training_matches_the_loop_with_the_masked_sigmoid(monkeypatch):
    """train_autoencoder at the encoder's layer-0 shape, on payloads of 40
    of 1500 bytes, gives the weights of the out-of-place loop run with the
    masked sigmoid on the zero-padded full-width net."""
    payloads = _padded_payloads(20, 1500, 40, seed=9)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=6, epochs=3, seed=9)
    trained = _spy_train(monkeypatch)
    bundle = pa.train_autoencoder(payloads, n_b=4, h=512, cfg=cfg)
    x = pa._scaled(payloads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn_core, "apply_activation", _masked_activation)
        expected, batches = _reference_train(_autoencoder(1500, 512, 4, 9), x, x, "mse", cfg)
    assert bundle.live_input_width == nn_core.CHUNK
    _assert_trained_as(bundle, trained[0], expected)
    assert bundle.loss_curve == [sum(value * size for value, size in epoch) / 20
                                 for epoch in batches]


@settings(max_examples=12)
@given(run=padded_payload_runs(n_p=700, width_max=512, min_batch_rows=1))
def test_training_on_the_live_width_equals_the_padded_batch_bit_for_bit(run):
    """train_autoencoder, which trains its live-width net on the rows cut at
    their live width, gives the weights and history of nn_core.train on
    the zero-padded rows with the full-width net, its layer 0 stored
    transposed."""
    payloads, n_b, cfg = run
    h = 64
    x = pa._scaled(payloads)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        expected, history = nn_core.train(_transposed(_autoencoder(700, h, n_b, cfg.seed)), x, x,
                                          "mse", cfg)
        trained = _spy_train(mp)
        bundle = pa.train_autoencoder(payloads, n_b=n_b, h=h, cfg=cfg)
    _assert_trained_as(bundle, trained[0], expected)
    assert bundle.loss_curve == history


def test_reconstruction_error_holds_one_float64_copy_of_the_batch():
    """numpy reports its buffers to tracemalloc. The error scales only the
    live columns (one chunk of 1500 here) and is formed in the net's
    output, so beside that output, at most one copy of the batch (half of
    it here, in two blocks of 200 rows), it holds the scaled live columns
    and the activations' row-block temporaries: under 1.5 copies (3.2
    before it was computed in place)."""
    rng = np.random.default_rng(8)
    x = np.zeros((400, 1500), dtype=np.uint8)
    x[:, :200] = rng.integers(0, 256, size=(400, 200))
    net = _transposed(nn_core.init_dense_net([1500, 64, 16, 64, 1500],
                                             ["relu", "sigmoid", "relu", "sigmoid"], seed=8))
    tracemalloc.start()
    try:
        pa.reconstruction_error(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.size * 8, f"peak {peak / (x.size * 8):.2f} copies of the batch"


def test_reconstruction_error_peak_does_not_grow_with_the_rows():
    """numpy reports its buffers to tracemalloc. The rows run in blocks of
    ERROR_BLOCK, so 8 blocks' worth peaks where one block does, but for
    the per-row error vector: under 1.2x (7x when the output was the whole
    batch)."""
    rng = np.random.default_rng(8)
    net = _transposed(nn_core.init_dense_net([1500, 64, 16, 64, 1500],
                                             ["relu", "sigmoid", "relu", "sigmoid"], seed=8))
    peaks = []
    for n in (pa.ERROR_BLOCK, 8 * pa.ERROR_BLOCK):
        x = np.zeros((n, 1500), dtype=np.uint8)
        x[:, :200] = rng.integers(0, 256, size=(n, 200))
        tracemalloc.start()
        try:
            pa.reconstruction_error(net, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], f"peaks {peaks[0] / 1e6:.2f} -> {peaks[1] / 1e6:.2f} MB"


@settings(max_examples=15)
@given(blocks=st.integers(1, 4), tail=st.integers(0, pa.ERROR_BLOCK - 1),
       width=st.integers(0, 700), transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_reconstruction_error_in_row_blocks_is_loss_mse_of_the_whole_batch(blocks, tail, width,
                                                                           transposed, seed):
    """n rows span `blocks` blocks, the last `tail` rows short of full: the
    net runs once per block, on blocks whose sizes differ by at most one
    row, and the error keeps the bits of loss_mse on the whole batch."""
    n = blocks * pa.ERROR_BLOCK - tail
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 700), dtype=np.uint8)
    x[:, :width] = rng.integers(0, 256, size=(n, width))
    net = nn_core.init_dense_net([700, 16, 4, 16, 700], ["relu", "sigmoid", "relu", "sigmoid"],
                                 seed=seed)
    net = _transposed(net) if transposed else net
    scaled = x / pa.BYTE_SCALE
    want = nn_core.loss_mse(nn_core.forward(net, scaled), scaled)
    with mock.patch.object(nn_core, "forward", wraps=nn_core.forward) as spy:
        got = pa.reconstruction_error(net, x)
    sizes = [len(call.args[1]) for call in spy.call_args_list]
    assert len(sizes) == blocks and sum(sizes) == n and max(sizes) - min(sizes) <= 1
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=15)
@given(n=st.integers(1, 40), width=st.integers(0, 700), transposed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruction_error_is_loss_mse_of_the_full_rows_bit_for_bit(n, width, transposed,
                                                                       seed):
    """At live width and in place, the error keeps the bits of loss_mse on
    the full-width scaled rows and their round trip."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 700), dtype=np.uint8)
    x[:, :width] = rng.integers(0, 256, size=(n, width))
    net = nn_core.init_dense_net([700, 16, 4, 16, 700], ["relu", "sigmoid", "relu", "sigmoid"],
                                 seed=seed)
    net = _transposed(net) if transposed else net
    scaled = x / pa.BYTE_SCALE
    want = nn_core.loss_mse(nn_core.forward(net, scaled), scaled)
    assert np.float64(pa.reconstruction_error(net, x)).tobytes() == np.float64(want).tobytes()


def test_rejects_non_compressing_bottleneck():
    x = _payloads(8, 10)
    with pytest.raises(ValueError):
        pa.train_autoencoder(x, n_b=10, h=8, cfg=TrainConfig(epochs=0))
    with pytest.raises(ValueError):
        pa.train_autoencoder(x, n_b=0, h=8, cfg=TrainConfig(epochs=0))
    with pytest.raises(ValueError):
        pa.train_autoencoder(np.empty((0, 10)), n_b=4, cfg=TrainConfig(epochs=0))


def test_narrow_hidden_width_warns(caplog):
    x = _payloads(8, 12)
    with caplog.at_level("WARNING", logger="ride.payload_autoencoder"):
        pa.train_autoencoder(x, n_b=6, h=4, cfg=TrainConfig(epochs=0))
    assert any("hidden width" in r.message for r in caplog.records)


def test_encode_rejects_wrong_length():
    bundle = _bundle(n_p=24)
    with pytest.raises(ValueError):
        pa.encode_matrix(bundle, np.zeros(23))
    with pytest.raises(ValueError):
        pa.encode_matrix(bundle, np.zeros((2, 25)))


def test_bundle_round_trip(tmp_path):
    bundle = _bundle(epochs=2)
    path = tmp_path / "ae.npz"
    pa.save_bundle(bundle, str(path))
    loaded = pa.load_bundle(str(path))
    assert (loaded.n_p, loaded.n_b, loaded.h) == (bundle.n_p, bundle.n_b, bundle.h)
    assert loaded.final_train_mse == bundle.final_train_mse
    assert loaded.seed == bundle.seed
    x = _payloads(3, bundle.n_p, seed=5)
    np.testing.assert_array_equal(pa.encode_matrix(loaded, x),
                                  pa.encode_matrix(bundle, x))


def test_padded_encoder_is_stored_transposed_and_old_files_still_load(tmp_path):
    # the default layer shapes, payloads of up to 200 of 1500 bytes
    x = np.zeros((12, 1500))
    x[:, :200] = _payloads(12, 200, seed=6)
    bundle = pa.train_autoencoder(x, n_b=100, h=512,
                                  cfg=TrainConfig(epochs=2, batch_size=4, seed=6))
    assert len(bundle.loss_curve) == 2
    assert not bundle.encoder.layers[0].w.flags.c_contiguous
    path = str(tmp_path / "ae.npz")
    pa.save_bundle(bundle, path)
    with np.load(path) as npz:  # Fortran order in the file: loads with no copy
        assert npz["encoder.w0"].flags.f_contiguous
    loaded = pa.load_bundle(path)
    assert loaded.encoder.layers[0].w.flags.f_contiguous
    assert loaded.loss_curve == bundle.loss_curve
    rows = x[:5]
    np.testing.assert_array_equal(pa.encode_matrix(loaded, rows), pa.encode_matrix(bundle, rows))
    # a file written before the transposed layout: C-order weights and no
    # loss curve; it loads and takes the plain full product, same bits
    old = DenseNet([nn_core.Layer(np.ascontiguousarray(l.w), l.b, l.activation)
                    for l in bundle.encoder.layers])
    old_path = str(tmp_path / "old.npz")
    nn_core.save_artifact(old_path, {"final_train_mse": bundle.final_train_mse, "seed": 6},
                          nets={"encoder": old})
    from_old = pa.load_bundle(old_path)
    assert from_old.encoder.layers[0].w.flags.c_contiguous
    assert from_old.loss_curve == []
    np.testing.assert_array_equal(pa.encode_matrix(from_old, rows),
                                  pa.encode_matrix(bundle, rows))


def _as_trained(n_p: int, h: int, seed: int, live: int) -> pa.AutoencoderBundle:
    """An n_p -> h -> 4 encoder as training leaves one: layer 0 stored
    transposed, its columns before live moved off their initial values,
    the others as init_dense_net drew them."""
    net = _transposed(nn_core.init_dense_net([n_p, h, 4], ["relu", "sigmoid"], seed=seed))
    first = net.layers[0]
    first.w[:, :live] += np.random.default_rng(seed).normal(size=(h, live))
    return pa.AutoencoderBundle(encoder=net, n_p=n_p, n_b=4, h=h, final_train_mse=0.5,
                                seed=seed, live_input_width=live)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=25)
@given(n_p=st.integers(2, 1500), h=st.integers(2, 80), seed=st.integers(0, 2**32 - 1),
       cut=st.integers(0, 6), data=st.data())
def test_a_saved_encoder_keeps_the_trained_columns_and_loads_bit_for_bit(
        tmp_path_factory, n_p, h, seed, cut, data):
    """The file keeps layer 0's columns before live_input_width (0, a
    multiple of CHUNK, or n_p); load_bundle draws the rest again from the
    seed. Layer 0 comes back with the same bits, and the encoder gives the
    same codes for rows of any width up to n_p."""
    live = min(n_p, cut * nn_core.CHUNK) if cut < 6 else n_p
    bundle = _as_trained(n_p, h, seed, live)
    path = str(tmp_path_factory.mktemp("ae") / "ae.npz")
    pa.save_bundle(bundle, path)
    with np.load(path) as npz:
        assert npz["encoder.w0"].shape == (h, live if live < n_p else n_p)
    loaded = pa.load_bundle(path)
    assert loaded.live_input_width == live and loaded.n_p == n_p
    for got, want in zip(loaded.encoder.layers, bundle.encoder.layers):
        assert _same_bits(got.w, want.w) and _same_bits(got.b, want.b)
    assert nn_core.stored_transposed(loaded.encoder.layers[0])
    width = data.draw(st.integers(0, n_p))
    rows = np.random.default_rng(seed).integers(0, 256, size=(5, width))
    assert _same_bits(pa.encode_matrix(loaded, rows), pa.encode_matrix(bundle, rows))


def test_an_encoder_whose_untrained_columns_moved_is_stored_whole(tmp_path):
    """Columns past live_input_width that are no longer the seed's draws
    cannot be drawn again, so save_bundle keeps encoder.w0 whole; so it
    does for a bundle with no live_input_width."""
    bundle = _as_trained(600, 8, 3, 256)
    bundle.encoder.layers[0].w[0, 599] += 1.0
    hand_built = dataclasses.replace(_as_trained(600, 8, 3, 256), live_input_width=None)
    for case in (bundle, hand_built):
        path = str(tmp_path / "ae.npz")
        pa.save_bundle(case, path)
        with np.load(path) as npz:
            assert npz["encoder.w0"].shape == (8, 600)
            assert "untrained_crc32" not in json.loads(npz["meta"].item())
        loaded = pa.load_bundle(path)
        assert loaded.live_input_width == case.live_input_width
        assert _same_bits(loaded.encoder.layers[0].w, case.encoder.layers[0].w)


def test_a_trained_encoder_file_keeps_only_the_live_columns(tmp_path):
    x = np.zeros((12, 1500))
    x[:, :200] = _payloads(12, 200, seed=6)
    bundle = pa.train_autoencoder(x, n_b=100, h=512,
                                  cfg=TrainConfig(epochs=2, batch_size=4, seed=6))
    path = str(tmp_path / "ae.npz")
    pa.save_bundle(bundle, path)
    with np.load(path) as npz:
        meta = json.loads(npz["meta"].item())
        assert npz["encoder.w0"].shape == (512, 256)
    assert (meta["live_input_width"], meta["n_p"]) == (256, 1500)
    assert isinstance(meta["untrained_crc32"], int)
    loaded = pa.load_bundle(path)
    assert _same_bits(loaded.encoder.layers[0].w, bundle.encoder.layers[0].w)
    # the rebuilt columns are the seed's, which training never moved
    initial = nn_core.init_dense_net([1500, 512, 100], ["relu", "sigmoid"], seed=6).layers[0].w
    assert _same_bits(np.ascontiguousarray(loaded.encoder.layers[0].w[:, 256:]),
                      initial[:, 256:])
    assert not np.array_equal(loaded.encoder.layers[0].w[:, :256], initial[:, :256])


@pytest.mark.parametrize("change, cause", [
    ({"seed": 7}, "do not draw again from seed 7"),
    ({"untrained_crc32": 12345}, "do not draw again from seed 3"),
    ({"n_p": 256}, "for live_input_width 256 of n_p 256"),
    ({"live_input_width": 512}, "for live_input_width 512 of n_p 600"),
    ({"n_p": None}, "for live_input_width 256 of n_p None"),
], ids=["seed", "digest", "n_p_at_live", "live_past_stored", "n_p_null"])
def test_a_cut_encoder_file_whose_meta_was_altered_does_not_load(tmp_path, change, cause):
    path = str(tmp_path / "ae.npz")
    pa.save_bundle(_as_trained(600, 8, 3, 256), path)
    with np.load(path) as npz:
        entries = {key: npz[key] for key in npz.files}
    meta = {**json.loads(entries["meta"].item()), **change}
    with open(path, "wb") as fh:
        np.savez(fh, **dict(entries, meta=np.array(json.dumps(meta))))
    with pytest.raises(ValueError, match=re.escape(f"bad model file {path}: ")) as info:
        pa.load_bundle(path)
    assert cause in str(info.value)
