"""Recursive fold of packet embeddings into flow embeddings."""

import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ride import flow_embedder as fe, nn_core, payload_autoencoder as pa, tree_distiller
from ride.classifier import ClassifierModel, predict_proba
from ride.flow_embedder import EmbeddedFlow, FlowEmbedding, RaeBundle
from ride.nn_core import DenseNet, Layer, TrainConfig
from ride.packet_ingest import FlowRecord, RawPacket, extract_payload_vector


def _sum_rae(n_b=2):
    """Composer that literally adds left+right; handy for arithmetic checks."""
    w_c = np.hstack([np.eye(n_b), np.eye(n_b)])
    composer = DenseNet([Layer(w=w_c, b=np.zeros(n_b), activation="identity")])
    return RaeBundle(composer=composer, n_b=n_b, final_recon_error=0.0)


def _trained_rae(n_b=3, seed=0, epochs=10):
    rng = np.random.default_rng(seed)
    pairs = rng.normal(scale=0.3, size=(24, 2 * n_b))
    return fe.train_rae(pairs, n_b=n_b, cfg=TrainConfig(epochs=epochs, seed=seed))


def _flow(embs, flow_id="f0", label="benign"):
    return EmbeddedFlow(flow_id=flow_id, embeddings=np.asarray(embs, dtype=np.float64),
                        label=label)


def test_combine_pair_hand_arithmetic():
    rae = _sum_rae()
    out = fe.combine_pair(rae, np.array([1.0, 2.0]), np.array([10.0, 20.0]))
    np.testing.assert_allclose(out, [11.0, 22.0], atol=1e-15)


def test_combine_pair_shape_validation():
    rae = _sum_rae()
    with pytest.raises(ValueError):
        fe.combine_pair(rae, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):  # k pairs need k right members
        fe.combine_pair(rae, np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fe.combine_pair(rae, np.zeros((1, 3, 2)), np.zeros((1, 3, 2)))
    out = fe.combine_pair(rae, np.ones((3, 2)), np.arange(6.0).reshape(3, 2))
    np.testing.assert_allclose(out, [[1, 2], [3, 4], [5, 6]], atol=1e-15)


def test_sequence_fold_is_left_fold():
    rae = _trained_rae()
    e = np.random.default_rng(1).normal(size=(4, 3))
    out = fe.embed_flow(rae, _flow(e), order="sequence")
    acc = e[0]
    for i in range(1, 4):
        acc = fe.combine_pair(rae, acc, e[i])
    np.testing.assert_array_equal(out.values, acc)
    assert out.label == "benign"


def test_sequence_fold_sum_oracle():
    rae = _sum_rae()
    e = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    out = fe.embed_flow(rae, _flow(e), order="sequence")
    np.testing.assert_allclose(out.values, [7.0, 9.0], atol=1e-15)


def test_single_packet_flow_passes_through():
    rae = _trained_rae()
    e = np.random.default_rng(2).normal(size=(1, 3))
    out = fe.embed_flow(rae, _flow(e), order="sequence")
    np.testing.assert_array_equal(out.values, e[0])
    # the returned vector is a copy, not a view into the flow matrix
    out.values[0] = 99.0
    assert e[0, 0] != 99.0


def test_empty_flow_raises():
    rae = _trained_rae()
    with pytest.raises(ValueError):
        fe.embed_flow(rae, _flow(np.empty((0, 3))))
    with pytest.raises(ValueError):
        fe.embed_flow(rae, _flow(np.zeros((2, 3))), order="bogus")
    with pytest.raises(ValueError):
        fe.prefix_embeddings(rae, _flow(np.empty((0, 3))))


def test_prefix_embeddings_snapshots():
    rae = _sum_rae()
    e = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    prefixes = fe.prefix_embeddings(rae, _flow(e, flow_id="fx", label="attack"))
    assert [p.flow_id for p in prefixes] == ["fx#1", "fx#2", "fx#3"]
    assert all(p.label == "attack" for p in prefixes)
    np.testing.assert_allclose(prefixes[0].values, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(prefixes[1].values, [3.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(prefixes[2].values, [7.0, 0.0], atol=1e-15)


def test_prefix_last_equals_full_sequence_fold():
    rae = _trained_rae(seed=7)
    e = np.random.default_rng(7).normal(size=(4, 3))
    flow = _flow(e)
    prefixes = fe.prefix_embeddings(rae, flow)
    full = fe.embed_flow(rae, flow, order="sequence")
    np.testing.assert_array_equal(prefixes[-1].values, full.values)
    assert len(prefixes) == 4


def _split_flows(seed=11):
    """Train and test flows of two classes; benign codes lie in [0, 0.5),
    attack codes in [0.5, 1], and every code is distinct."""
    rng = np.random.default_rng(seed)
    flows = []
    for split, lengths in (("train", [1, 3, 4, 2, 5]), ("test", [3, 2])):
        for label, lo in (("benign", 0.0), ("attack", 0.5)):
            for i, n in enumerate(lengths):
                flows.append(_flow(rng.uniform(lo, lo + 0.5, size=(n, 3)),
                                   flow_id=f"{split}-{label}-{i}", label=label))
    return ([f for f in flows if f.flow_id.startswith("train")],
            [f for f in flows if f.flow_id.startswith("test")])


def _final_states(rae, flows):
    """The last fold state of every flow, all flows folded in one batch."""
    codes, offsets = fe.stack_codes(flows)
    values = fe.fold_finals(rae, codes, offsets)
    return [FlowEmbedding(flow_id=f.flow_id, values=v, label=f.label)
            for f, v in zip(flows, values)]


def _queries(flows, n_flows, seed):
    """sample_query_flows's stacked sequences as flows, each labeled with
    the class of the training flow that holds its first code."""
    pool, rows, offsets = fe.sample_query_flows(flows, n_flows, seed=seed)
    codes = pool[rows]
    assert offsets[0] == 0 and offsets[-1] == len(codes) and len(offsets) == n_flows + 1
    label_of = {tuple(r): f.label for f in flows for r in f.embeddings}
    return [EmbeddedFlow(flow_id=f"query#{q}", embeddings=codes[lo:hi],
                         label=label_of[tuple(codes[lo])])
            for q, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))]


def test_query_sampler_draws_same_class_training_packets():
    train, test = _split_flows()
    rae = _trained_rae(seed=4)
    queries = _queries(train, 60, seed=5)
    states = _final_states(rae, queries)

    # deterministic for a seed, different for another
    again = _final_states(rae, _queries(train, 60, seed=5))
    for a, b in zip(states, again):
        np.testing.assert_array_equal(a.values, b.values)
    other = _queries(train, 60, seed=6)
    assert any(not np.array_equal(a.embeddings, b.embeddings)
               for a, b in zip(queries, other))

    # each state is the sequential fold of its packet sequence; the batched
    # product may round differently from the one-row product in the last bits
    for q, s in zip(queries, states):
        ref = fe.embed_flow(rae, q, order="sequence")
        np.testing.assert_allclose(s.values, ref.values, rtol=0, atol=1e-12)

    # every packet is a training packet of the query's own class, never a
    # test packet; lengths are training-flow lengths
    rows = {label: {tuple(r) for f in train if f.label == label for r in f.embeddings}
            for label in ("benign", "attack")}
    test_rows = {tuple(r) for f in test for r in f.embeddings}
    lengths = {f.embeddings.shape[0] for f in train}
    for q in queries:
        assert all(tuple(r) in rows[q.label] for r in q.embeddings)
        assert not any(tuple(r) in test_rows for r in q.embeddings)
        assert q.embeddings.shape[0] in lengths
    assert {q.label for q in queries} == {"benign", "attack"}

    # the labels the student learns are the teacher's argmax on the states
    layer = Layer(w=np.array([[-4.0, -4.0, -4.0], [4.0, 4.0, 4.0]]),
                  b=np.array([3.0, -3.0]), activation="softmax")
    teacher = ClassifierModel(net=DenseNet([layer]), class_names=["benign", "attack"])
    x = np.stack([s.values for s in states])
    data = tree_distiller.generate_teacher_dataset(teacher, x)
    np.testing.assert_array_equal(
        data.y_teacher, np.argmax(predict_proba(teacher, x), axis=1))
    np.testing.assert_array_equal(data.x, x)


def test_sample_training_pairs_adjacent_and_ordered():
    f1 = _flow(np.array([[1.0, 0], [2.0, 0], [3.0, 0]]), flow_id="a")
    f2 = _flow(np.array([[9.0, 0], [8.0, 0]]), flow_id="b")
    pairs = fe.sample_training_pairs(*fe.stack_codes([f1, f2]))
    assert pairs.shape == (3, 4)
    np.testing.assert_allclose(pairs[0], [1, 0, 2, 0])
    np.testing.assert_allclose(pairs[1], [2, 0, 3, 0])
    np.testing.assert_allclose(pairs[2], [9, 0, 8, 0])


def test_sample_training_pairs_cap_is_seeded_subset():
    flows = [_flow(np.arange(12, dtype=np.float64).reshape(6, 2), flow_id=str(i))
             for i in range(4)]
    codes, offsets = fe.stack_codes(flows)
    full = fe.sample_training_pairs(codes, offsets, pair_cap=1000)
    capped = fe.sample_training_pairs(codes, offsets, pair_cap=7, seed=3)
    again = fe.sample_training_pairs(codes, offsets, pair_cap=7, seed=3)
    assert capped.shape == (7, 4)
    np.testing.assert_array_equal(capped, again)
    # every capped row exists in the full set
    full_rows = {tuple(r) for r in full}
    assert all(tuple(r) in full_rows for r in capped)


def _every_pair_then_cap(flows, pair_cap, seed):
    """sample_training_pairs as first written, kept as its oracle: one
    concatenated row per adjacent pair, then the seeded cap."""
    rows = [np.concatenate([f.embeddings[i], f.embeddings[i + 1]])
            for f in flows for i in range(f.embeddings.shape[0] - 1)]
    pairs = np.stack(rows)
    if pairs.shape[0] > pair_cap:
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = pairs[np.sort(rng.choice(pairs.shape[0], size=pair_cap, replace=False))]
    return pairs


@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=20).filter(
           lambda ls: max(ls) > 1),
       n_b=st.integers(1, 5), cap_frac=st.floats(0.05, 1.5), seed=st.integers(0, 2**32 - 1))
def test_sample_training_pairs_equals_the_per_pair_construction(lengths, n_b, cap_frac, seed):
    rng = np.random.default_rng(seed)
    flows = [_flow(rng.normal(size=(n, n_b)), flow_id=str(j)) for j, n in enumerate(lengths)]
    n_pairs = sum(n - 1 for n in lengths)
    cap = max(1, round(cap_frac * n_pairs))  # below and above the pair count
    got = fe.sample_training_pairs(*fe.stack_codes(flows), pair_cap=cap, seed=seed)
    want = _every_pair_then_cap(flows, cap, seed)
    assert got.shape == (min(cap, n_pairs), 2 * n_b)
    assert got.tobytes() == want.tobytes()


def test_sample_training_pairs_needs_multipacket_flow():
    with pytest.raises(ValueError):
        fe.sample_training_pairs(*fe.stack_codes([_flow(np.zeros((1, 2)))]))


def test_train_rae_reduces_error_and_validates():
    rng = np.random.default_rng(8)
    pairs = rng.normal(scale=0.3, size=(40, 6))
    before = fe.train_rae(pairs, n_b=3, cfg=TrainConfig(epochs=0, seed=8))
    after = fe.train_rae(pairs, n_b=3,
                         cfg=TrainConfig(epochs=120, learning_rate=3e-3, seed=8))
    assert after.final_recon_error < before.final_recon_error
    with pytest.raises(ValueError):
        fe.train_rae(pairs, n_b=4)  # width 6 != 2*4


def test_rae_bundle_dim_validation():
    rae = _trained_rae(n_b=3)
    with pytest.raises(ValueError):
        RaeBundle(composer=rae.composer, n_b=4, final_recon_error=0.0)


def test_a_composer_stored_transposed_is_held_in_c_order():
    """Every fold step is the plain product: a composer stored transposed
    (as training would store one whose pairs end in an all-zero chunk) is
    held as a C-order copy of its weights, so fold_prefixes, combine_pair
    and fold_finals agree on it past one chunk of pair columns as well."""
    n_b = 150  # 2*n_b spans two chunks
    c_order = _tanh_rae(n_b, 5)
    layer = c_order.composer.layers[0]
    transposed = RaeBundle(composer=DenseNet([Layer(np.asfortranarray(layer.w), layer.b,
                                                    "tanh")]), n_b=n_b, final_recon_error=0.0)
    assert not nn_core.stored_transposed(transposed.composer.layers[0])
    codes = np.random.default_rng(5).uniform(size=(4, n_b))
    want = fe.fold_prefixes(c_order, codes)
    assert fe.fold_prefixes(transposed, codes).tobytes() == want.tobytes()
    acc = codes[0]
    for code in codes[1:]:
        acc = fe.combine_pair(transposed, acc, code)
    assert acc.tobytes() == want[-1].tobytes()
    assert fe.fold_finals(transposed, codes, [0, 4]).tobytes() == want[-1:].tobytes()


def test_encode_flows_shapes_and_values():
    # hand-built encoder picks (b0, b1)/255 out of a 4-byte payload
    w = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    enc = DenseNet([Layer(w=w, b=np.zeros(2), activation="identity")])
    bundle = pa.AutoencoderBundle(encoder=enc, n_p=4, n_b=2, h=2, final_train_mse=0.0)
    pkt = lambda payload: RawPacket(timestamp=0.0, src_addr="10.0.0.1",
                                    dst_addr="10.0.0.2", src_port=1, dst_port=2,
                                    protocol="TCP", payload=payload)
    flow = FlowRecord(flow_id="k", packets=[pkt(b"\xff\x00"), pkt(b"\x00\xff\xff")],
                      label="benign")
    out = fe.encode_flows(bundle, [flow], n_p=4)
    assert len(out) == 1 and out[0].embeddings.shape == (2, 2)
    np.testing.assert_allclose(out[0].embeddings[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(out[0].embeddings[1], [0.0, 1.0], atol=1e-15)
    assert out[0].label == "benign"


def test_embeddings_csv_round_trip(tmp_path):
    embs = [
        FlowEmbedding(flow_id="a", values=np.array([0.1, -2.5e-7]), label="benign"),
        FlowEmbedding(flow_id="b", values=np.array([1e300, 0.0]), label=None),
    ]
    path = tmp_path / "emb.csv"
    path.write_text("flow_id,label,v_1,v_2\n" + "".join(
        f"{e.flow_id},{e.label or ''},{','.join(repr(float(v)) for v in e.values)}\n"
        for e in embs))
    loaded = fe.flow_embeddings_from_csv(str(path))
    assert [e.flow_id for e in loaded] == ["a", "b"]
    assert loaded[0].label == "benign" and loaded[1].label is None
    np.testing.assert_array_equal(loaded[0].values, embs[0].values)
    np.testing.assert_array_equal(loaded[1].values, embs[1].values)
    path.write_text("flow_id,label,v_1,v_2\na,benign,0.5\n")
    with pytest.raises(ValueError, match="ragged"):
        fe.flow_embeddings_from_csv(str(path))


def test_rae_round_trip(tmp_path):
    rae = _trained_rae(epochs=2)
    path = tmp_path / "rae.npz"
    fe.save_rae(rae, str(path))
    loaded = fe.load_rae(str(path))
    assert loaded.n_b == rae.n_b
    assert loaded.final_recon_error == rae.final_recon_error
    assert loaded.seed == rae.seed
    assert len(rae.loss_curve) == 2 and loaded.loss_curve == rae.loss_curve
    left, right = np.ones(3) * 0.2, np.ones(3) * -0.1
    np.testing.assert_array_equal(fe.combine_pair(loaded, left, right),
                                  fe.combine_pair(rae, left, right))
    with np.load(path) as npz:  # the reconstructor only trains; it is not stored
        assert sorted(npz.files) == ["composer.b0", "composer.w0", "meta"]


def test_rae_file_with_a_reconstructor_still_loads(tmp_path):
    """rae.npz files written before the composer was stored alone also
    hold the reconstructor; they load and fold as before."""
    pairs = np.random.default_rng(3).normal(scale=0.3, size=(24, 6))
    net = nn_core.init_dense_net([6, 3, 6], ["tanh", "tanh"], seed=3)
    trained, history = nn_core.train(net, pairs, pairs, "mse", TrainConfig(epochs=3, seed=3))
    path = str(tmp_path / "rae.npz")
    nn_core.save_artifact(path, {"final_recon_error": 0.25, "seed": 3, "loss_curve": history,
                                 "autoencoder_sha256": "ef" * 32},
                          nets={"composer": DenseNet([trained.layers[0]]),
                                "reconstructor": DenseNet([trained.layers[1]])})
    loaded = fe.load_rae(path)
    assert (loaded.n_b, loaded.final_recon_error, loaded.seed) == (3, 0.25, 3)
    assert loaded.loss_curve == history
    fresh = RaeBundle(composer=DenseNet([trained.layers[0]]), n_b=3, final_recon_error=0.25)
    e = np.random.default_rng(4).uniform(size=(5, 3))
    np.testing.assert_array_equal(fe.fold_prefixes(loaded, e), fe.fold_prefixes(fresh, e))


def test_packet_codes_round_trip(tmp_path):
    """Labels come back whole: one ending in NUL, which a numpy str array
    drops (so labels `x` and `x` + NUL would merge into one class), and a
    non-ASCII one."""
    labels = ["benign", "attack", "x", "x\0", "ataque-é"]
    flows = [_flow(np.arange(6.0).reshape(3, 2), flow_id="a", label=labels[0]),
             _flow(np.array([[1e300, -2.5e-7]]), flow_id="b|c", label=labels[1])]
    flows += [_flow(np.full((1, 2), float(j)), flow_id=f"f{j}", label=label)
              for j, label in enumerate(labels[2:])]
    path = str(tmp_path / "codes.npz")
    fe.save_packet_codes(path, *fe.stack_codes(flows), flows)
    loaded = fe.load_packet_codes(path)
    assert [(f.flow_id, f.label) for f in loaded] == list(
        zip(["a", "b|c", "f0", "f1", "f2"], labels, strict=True))
    for got, want in zip(loaded, flows, strict=True):
        np.testing.assert_array_equal(got.embeddings, want.embeddings)
    with np.load(path, allow_pickle=False) as npz:
        entries = {k: npz[k] for k in npz.files}
    short = dict(entries, codes=entries["codes"][:5])  # the offsets still end at row 6
    meta = json.loads(entries["meta"].item())
    one_label_less = dict(entries, meta=np.array(json.dumps({"labels": meta["labels"][:-1]})))
    # the layout before the labels moved to meta: a str array beside the codes
    labels_array = dict(entries, meta=np.array("{}"), labels=np.array(labels, dtype=str))
    for bad, cause in ((short, "codes .* do not fit"), (one_label_less, "codes .* do not fit"),
                       (labels_array, "'meta' lacks")):
        with open(path, "wb") as fh:
            np.savez(fh, **bad)
        with pytest.raises(ValueError, match=f"bad model file .*codes.npz: {cause}"):
            fe.load_packet_codes(path)


def _tanh_rae(n_b, seed):
    rng = np.random.default_rng(seed)
    layer = Layer(w=rng.normal(scale=0.7, size=(n_b, 2 * n_b)),
                  b=rng.normal(scale=0.1, size=n_b), activation="tanh")
    return RaeBundle(composer=DenseNet([layer]), n_b=n_b, final_recon_error=0.0)


@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=30),
       n_b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_fold_prefixes_is_the_left_fold_of_every_flow(lengths, n_b, seed):
    rae = _tanh_rae(n_b, seed)
    codes = np.random.default_rng(seed).uniform(size=(sum(lengths), n_b))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    before = codes.copy()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        # the plain left fold of one-pair calls, bit for bit
        states = fe.fold_prefixes(rae, codes[lo:hi])
        assert states.shape == (hi - lo, n_b)
        acc = codes[lo]
        np.testing.assert_array_equal(states[0], acc)
        for k in range(1, hi - lo):
            acc = fe.combine_pair(rae, acc, codes[lo + k])
            np.testing.assert_array_equal(states[k], acc)
    np.testing.assert_array_equal(codes, before)  # the input is not written
    with pytest.raises(ValueError, match="flow 0 has no packets"):
        fe.fold_prefixes(rae, codes[:0])


@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=30),
       n_b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_fold_finals_are_the_last_prefix_states_bit_for_bit(lengths, n_b, seed):
    """fold_finals of one flow is the last state of fold_prefixes (which
    embed_flow gives), bit for bit; of a batch, the same within the
    rounding of a many-row product; and reading the stacked codes through
    a row index gives the bits of gathering them."""
    rae = _tanh_rae(n_b, seed)
    rng = np.random.default_rng(seed)
    codes = rng.uniform(size=(sum(lengths), n_b))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    before = codes.copy()
    finals = fe.fold_finals(rae, codes, offsets)
    np.testing.assert_array_equal(codes, before)  # the input is not written
    assert finals.shape == (len(lengths), n_b)
    for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        last = fe.fold_prefixes(rae, codes[lo:hi])[-1:]
        assert fe.fold_finals(rae, codes[lo:hi], [0, hi - lo]).tobytes() == last.tobytes()
        assert fe.embed_flow(rae, _flow(codes[lo:hi])).values.tobytes() == last[0].tobytes()
        np.testing.assert_allclose(finals[j], last[0], rtol=0, atol=1e-12)
        rows = rng.integers(0, len(codes), size=hi - lo)
        assert (fe.fold_finals(rae, codes, [0, hi - lo], rows).tobytes()
                == fe.fold_finals(rae, codes[rows], [0, hi - lo]).tobytes())
    rows = rng.permutation(len(codes))
    assert (fe.fold_finals(rae, codes, offsets, rows).tobytes()
            == fe.fold_finals(rae, codes[rows], offsets).tobytes())
    empty = np.insert(offsets, 1 + seed % len(lengths), offsets[1 + seed % len(lengths)])
    with pytest.raises(ValueError, match="has no packets"):
        fe.fold_finals(rae, codes, empty)


def test_the_final_state_fold_holds_under_1_2_copies_of_its_codes():
    """The distill stage folds every query flow in one batch and keeps only
    the final states. numpy reports its buffers to tracemalloc: the fold
    adds the state array and pair buffer of (flows) x 3*n_b and one step's
    codes, then the (flows) x n_b finals once the steps are done, here
    about 0.9 copies of the codes, and holds no state of any other step."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 9, size=2000)
    codes = rng.uniform(size=(int(lengths.sum()), 100))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    rae = _tanh_rae(100, 3)
    tracemalloc.start()
    try:
        fe.fold_finals(rae, codes, offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * codes.nbytes, f"peak {peak / codes.nbytes:.2f} copies of the codes"


def _two_block_fold(rae, codes, offsets, every_step, rows=None):
    """The fold as it was before it held one state array, kept as the
    oracle of fold_prefixes (one flow, every_step) and fold_finals: the
    flows' rows in step-major order, two step blocks in turn, and a
    scatter of the flows that end after each step."""
    part = lambda index, lo, hi: slice(lo, hi) if index is None else index[lo:hi]
    codes = np.asarray(codes, dtype=np.float64)
    n_rows = len(codes) if rows is None else len(rows)
    if len(offsets) == 2:
        order = by_length = None
        live = [1] * n_rows
    else:
        offsets = np.asarray(offsets)
        lengths = offsets[1:] - offsets[:-1]
        by_length = np.argsort(-lengths, kind="stable")
        steps = np.arange(lengths.max())[:, None]
        folding = lengths[by_length] > steps
        order = (offsets[by_length] + steps)[folding]
        live = np.count_nonzero(folding, axis=1).tolist()
    source = order
    if rows is not None:
        rows = np.asarray(rows)
        source = rows if order is None else rows[order]
    n_b = rae.n_b
    layer = rae.composer.layers[0]
    out = np.empty((n_rows if every_step else live[0], n_b))
    cur, nxt = np.empty((live[0], 2 * n_b)), np.empty((live[0], 2 * n_b))
    cur[:, :n_b] = codes[part(source, 0, live[0])]
    lo = 0
    for k, k_next in zip(live, live[1:] + [0]):
        if every_step:
            out[part(order, lo, lo + k)] = cur[:k, :n_b]
        elif k_next < k:
            out[part(by_length, k_next, k)] = cur[k_next:k, :n_b]
        lo += k
        if k_next:
            cur[:k_next, n_b:] = codes[part(source, lo, lo + k_next)]
            nn_core.affine_into(layer, cur[:k_next], out=nxt[:k_next, :n_b])
            cur, nxt = nxt, cur
    return out


@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=40),
       n_b=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_the_fold_gives_the_bits_of_the_two_block_fold(lengths, n_b, seed):
    """fold_prefixes flow by flow (the serving fold), and fold_finals of
    the batch (the distill queries) with the codes read directly or
    through a row index that repeats and skips pool rows."""
    rae = _tanh_rae(n_b, seed)
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    codes = rng.uniform(size=(offsets[-1], n_b))
    pool = rng.uniform(size=(2 * offsets[-1], n_b))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        want = _two_block_fold(rae, codes[lo:hi], [0, hi - lo], True)
        assert fe.fold_prefixes(rae, codes[lo:hi]).tobytes() == want.tobytes()
    for source, rows in ((codes, None), (pool, rng.integers(0, len(pool), size=offsets[-1]))):
        got = fe.fold_finals(rae, source, offsets, rows)
        assert got.tobytes() == _two_block_fold(rae, source, offsets, False, rows).tobytes()


def test_fold_finals_rejects_offsets_that_miss_the_codes():
    rae = _sum_rae()
    codes = np.ones((4, 2))
    for offsets in ([0, 3], [1, 4], [0], [0, 2, 5]):
        with pytest.raises(ValueError, match="run from 0 to the 4 rows"):
            fe.fold_finals(rae, codes, offsets)
    with pytest.raises(ValueError, match=r"codes must be a \(packets, n_b\) matrix"):
        fe.fold_prefixes(rae, np.ones(2))


def _full_width_codes(bundle, flow, n_p):
    """The encoder input as built before the narrow matrix, kept as the
    oracle: every packet's n_p-wide payload vector, stacked."""
    mat = np.stack([np.asarray(extract_payload_vector(p, n_p).values, dtype=np.float64)
                    for p in flow.packets])
    return pa.encode_matrix(bundle, mat)


def _encoder(n_p, layout):
    """An n_p -> 32 -> 8 encoder with layer 0 in Fortran order, as training
    stores a padded layer 0, or in C order, as a file from before loads."""
    net = nn_core.init_dense_net([n_p, 32, 8], ["relu", "sigmoid"], seed=n_p)
    w0 = net.layers[0].w
    w0 = np.asfortranarray(w0) if layout == "F" else np.ascontiguousarray(w0)
    enc = DenseNet([Layer(w0, net.layers[0].b, "relu"), net.layers[1]])
    assert nn_core.stored_transposed(enc.layers[0]) == (layout == "F")
    return pa.AutoencoderBundle(encoder=enc, n_p=n_p, n_b=8, h=32, final_train_mse=0.0)


def _packet(payload):
    return RawPacket(timestamp=0.0, src_addr="10.0.0.1", dst_addr="10.0.0.2",
                     src_port=1, dst_port=2, protocol="TCP", payload=payload)


@st.composite
def payload_flows(draw):
    """n_p, and a flow of 1-8 packets whose payloads may be empty, end in
    zero bytes or run past n_p."""
    n_p = draw(st.sampled_from([64, 300, 700, 1500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    packets = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.one_of(st.just(0), st.integers(0, n_p + 40)))
        body = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        packets.append(_packet(body + b"\0" * draw(st.sampled_from([0, 0, 1, 7, 300]))))
    return n_p, FlowRecord(flow_id="k", packets=packets, label="benign")


@settings(max_examples=200)
@given(drawn=payload_flows(), layout=st.sampled_from(["F", "C"]))
def test_encode_flows_equals_the_full_width_rows_bit_for_bit(drawn, layout):
    n_p, flow = drawn
    bundle = _encoder(n_p, layout)
    (got,) = fe.encode_flows(bundle, [flow], n_p=n_p)
    assert np.array_equal(got.embeddings, _full_width_codes(bundle, flow, n_p))


@pytest.mark.parametrize("n_p", [64, 300, 1500])
@pytest.mark.parametrize("layout", ["F", "C"])
def test_encode_flows_of_an_all_empty_flow_equals_the_full_width_rows(n_p, layout):
    bundle = _encoder(n_p, layout)
    flow = FlowRecord(flow_id="k", packets=[_packet(b""), _packet(b"\0" * 9)])
    (got,) = fe.encode_flows(bundle, [flow], n_p=n_p)
    assert got.embeddings.shape == (2, 8)
    assert np.array_equal(got.embeddings, _full_width_codes(bundle, flow, n_p))


def test_narrow_rows_need_a_transposed_layer_zero():
    bundle = _encoder(300, "F")
    x = np.random.default_rng(3).uniform(size=(2, 300))
    x[:, 100:] = 0.0
    # rows narrower than n_p are the zero-padded rows; wider ones are refused
    assert np.array_equal(nn_core.forward(bundle.encoder, x[:, :100]),
                          nn_core.forward(bundle.encoder, x))
    with pytest.raises(ValueError, match="row length 301 > n_p=300"):
        pa.encode_matrix(bundle, np.zeros((2, 301)))
    with pytest.raises(ValueError, match="layer 0 expects input dim 300, got 100"):
        nn_core.forward(_encoder(300, "C").encoder, x[:, :100])
    # a copy keeps the layout; past layer 0 even a transposed layer takes
    # its full width only
    net = bundle.encoder.copy()
    assert nn_core.stored_transposed(net.layers[0])
    net.layers[1] = Layer(np.asfortranarray(np.ones((8, 40))), np.zeros(8), "sigmoid")
    with pytest.raises(ValueError, match="layer 1 expects input dim 40, got 32"):
        nn_core.forward(net, x)
    with pytest.raises(ValueError, match="row length 200 != n_p=300"):
        fe.encode_flows(bundle, [FlowRecord(flow_id="k", packets=[_packet(b"a")])], n_p=200)


def _frozen_encode_flow(bundle, flow, n_p):
    """encode_flows, encode_matrix and nn_core.forward on one flow as they
    were before the live width was found once per flow, kept as the bits
    oracle of the serving encoder. The rows end at the width found from the
    payload bytes (at n_p for a C-order layer 0); a layer stored transposed
    then scans its input for the live width again, pads a row that ends
    inside a chunk, and sums the chunks' products up to that width."""
    chunk = nn_core.CHUNK
    layers = bundle.encoder.layers
    width = n_p
    if not layers[0].w.flags.c_contiguous:
        last = max(len(p.payload[:n_p].rstrip(b"\0")) for p in flow.packets)
        width = min(n_p, -(-last // chunk) * chunk)
    raw = b"".join(p.payload[:width].ljust(width, b"\0") for p in flow.packets)
    a = np.divide(np.frombuffer(raw, dtype=np.uint8).reshape(len(flow.packets), width),
                  255.0, dtype=np.float64)
    for layer in layers:
        if layer.w.flags.c_contiguous:
            z = np.matmul(a, layer.w.T)
        else:
            wT = layer.w.T
            cols = np.flatnonzero(a.any(axis=0))
            live = 0 if cols.size == 0 else min(wT.shape[0], (int(cols[-1]) // chunk + 1) * chunk)
            if not live:
                z = np.zeros((len(a), wT.shape[1]))
            else:
                if live > a.shape[1]:
                    a = np.pad(a, ((0, 0), (0, live - a.shape[1])))
                z = np.matmul(a[:, :chunk], wT[:chunk])
                for lo in range(chunk, live, chunk):
                    z += a[:, lo:lo + chunk] @ wT[lo:lo + chunk]
        z += layer.b
        a = nn_core.apply_activation(layer.activation, z, out=z)
    return a


def _frozen_fold_prefixes(rae, codes):
    """fold_prefixes as it was before the states were folded in place, kept
    as the bits oracle of the serving fold: each step copies the last state
    and the next code into a one-row pair buffer and composes it."""
    layer, n_b = rae.composer.layers[0], rae.n_b
    states, pair = np.empty((len(codes), n_b)), np.empty((1, 2 * n_b))
    states[0] = codes[0]
    for i in range(1, len(codes)):
        pair[0, :n_b], pair[0, n_b:] = states[i - 1], codes[i]
        z = np.matmul(pair, layer.w.T, out=states[i:i + 1])
        z += layer.b
        nn_core.apply_activation(layer.activation, z, out=z)
    return states


_ENCODER_SHAPES = {64: (32, 8), 300: (32, 8), 700: (128, 16), 1500: (512, 100)}


@functools.cache
def _shaped_encoder(n_p, layout):
    """An n_p -> h -> n_b encoder of _ENCODER_SHAPES (1500: the default
    sizes), layer 0 stored as training stores a padded one ("F") or C-ordered."""
    h, n_b = _ENCODER_SHAPES[n_p]
    net = nn_core.init_dense_net([n_p, h, n_b], ["relu", "sigmoid"], seed=n_p)
    w0 = net.layers[0].w
    w0 = np.asfortranarray(w0) if layout == "F" else np.ascontiguousarray(w0)
    return pa.AutoencoderBundle(
        encoder=DenseNet([Layer(w0, net.layers[0].b, "relu"), net.layers[1]]),
        n_p=n_p, n_b=n_b, h=h, final_train_mse=0.0)


@st.composite
def live_width_flows(draw):
    """n_p and a flow of 1-8 packets whose longest payload ends (its last
    nonzero byte) nowhere, inside the first chunk, one byte either side of
    or at a chunk edge, or at n_p; payloads may end in zero bytes or run
    past n_p."""
    chunk = nn_core.CHUNK
    n_p = draw(st.sampled_from(sorted(_ENCODER_SHAPES)))
    edges = list(range(chunk, n_p, chunk))
    kinds = ["none", "one chunk", "n_p"] + (["edge"] if edges else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "one chunk":
        last = draw(st.integers(1, min(n_p, chunk) - 1))
    elif kind == "edge":
        last = draw(st.sampled_from(edges)) + draw(st.sampled_from([-1, 0, 1]))
    else:
        last = 0 if kind == "none" else n_p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    ends = [int(rng.integers(0, last + 1)) for _ in range(n)]
    ends[draw(st.integers(0, n - 1))] = last
    packets = []
    for end in ends:
        body = rng.integers(0, 256, size=end, dtype=np.uint8)
        if end:
            body[-1] = rng.integers(1, 256)
        tail = draw(st.sampled_from([0, 0, 1, 7, 300]))
        if kind == "n_p" and end == n_p:
            tail = rng.integers(0, 256, size=tail, dtype=np.uint8).tobytes()
        else:
            tail = b"\0" * tail
        packets.append(_packet(body.tobytes() + tail))
    return n_p, FlowRecord(flow_id="k", packets=packets, label="benign")


@settings(max_examples=150)
@given(drawn=live_width_flows(), layout=st.sampled_from(["F", "C"]),
       seed=st.integers(0, 2**32 - 1))
def test_the_serving_path_gives_the_bits_of_the_frozen_encoder_and_fold(drawn, layout, seed):
    """encode_flows of one flow and fold_prefixes of its codes give the
    bits of the copies above of the encoder and the fold they replaced, at
    every live width and both layer-0 layouts."""
    n_p, flow = drawn
    bundle = _shaped_encoder(n_p, layout)
    (got,) = fe.encode_flows(bundle, [flow], n_p=n_p)
    want = _frozen_encode_flow(bundle, flow, n_p)
    assert got.embeddings.tobytes() == want.tobytes()
    rae = _tanh_rae(bundle.n_b, seed)
    assert fe.fold_prefixes(rae, got.embeddings).tobytes() == \
        _frozen_fold_prefixes(rae, want).tobytes()
