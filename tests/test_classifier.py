import numpy as np
import pytest

from ride import classifier as clf, nn_core
from ride.flow_embedder import FlowEmbedding
from ride.nn_core import DenseNet, Layer, TrainConfig


def emb(values, label=None, fid="f0"):
    return FlowEmbedding(flow_id=fid, values=np.asarray(values, dtype=np.float64),
                         n_packets_folded=1, label=label)


def blobs(n_per_class=40, centers=((0.2, 0.2), (0.8, 0.8)), labels=("benign", "attack"),
          seed=0, spread=0.08):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for c, (center, label) in enumerate(zip(centers, labels)):
        pts = rng.normal(loc=center, scale=spread, size=(n_per_class, len(center)))
        out.extend(emb(p, label, f"{label}{i}") for i, p in enumerate(pts))
    return out


# ----------------------------------------------------------- label coding

def test_encode_labels_benign_first_rest_sorted():
    names, y = clf.encode_labels(["dos", "Benign", "scan", "Benign", "dos"])
    assert names == ["Benign", "dos", "scan"]
    np.testing.assert_array_equal(y, [1, 0, 2, 0, 1])


def test_encode_labels_without_benign_sorts():
    names, y = clf.encode_labels(["b", "a", "b"])
    assert names == ["a", "b"]
    np.testing.assert_array_equal(y, [1, 0, 1])


# ---------------------------------------------------------------- metrics

def test_metrics_binary_hand_example():
    # 8 TP, 2 FP, 2 FN, 8 TN -> precision = recall = 0.8 -> F1 = 0.8
    y_true = np.array([1] * 10 + [0] * 10)
    y_pred = np.array([1] * 8 + [0] * 2 + [0] * 8 + [1] * 2)
    acc, f1, confusion = clf.metrics_from_predictions(y_true, y_pred, 2)
    assert f1 == pytest.approx(0.8)
    assert acc == pytest.approx(0.8)
    np.testing.assert_array_equal(confusion, [[8, 2], [2, 8]])


def test_metrics_zero_denominator_gives_zero_f1():
    y_true = np.array([0, 0, 0])
    y_pred = np.array([0, 0, 0])
    acc, f1, _ = clf.metrics_from_predictions(y_true, y_pred, 2)
    assert acc == 1.0 and f1 == 0.0


def test_metrics_match_sklearn_macro():
    metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.Generator(np.random.PCG64(17))
    for k in (2, 3, 5):
        y_true = rng.integers(0, k, size=200)
        y_pred = rng.integers(0, k, size=200)
        acc, f1, confusion = clf.metrics_from_predictions(y_true, y_pred, k)
        assert acc == pytest.approx(metrics.accuracy_score(y_true, y_pred))
        average = "binary" if k == 2 else "macro"
        want = metrics.f1_score(y_true, y_pred, average=average, zero_division=0.0)
        assert f1 == pytest.approx(want)
        np.testing.assert_array_equal(
            confusion, metrics.confusion_matrix(y_true, y_pred, labels=range(k)))


def test_metrics_rejects_bad_shapes():
    with pytest.raises(ValueError):
        clf.metrics_from_predictions(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(ValueError):
        clf.metrics_from_predictions(np.array([]), np.array([]), 2)


# --------------------------------------------------------------- training

def test_train_classifier_learns_blobs():
    data = blobs()
    model = clf.train_classifier(
        data, cfg=TrainConfig(learning_rate=5e-3, batch_size=16, epochs=60, seed=1),
        hidden=16)
    assert model.class_names == ["benign", "attack"]  # benign pinned to id 0
    preds = [model.predict_label(e.values) for e in data]
    acc = np.mean([p == e.label for p, e in zip(preds, data)])
    assert acc == 1.0


def test_train_classifier_benign_is_class_zero():
    data = blobs(labels=("Benign", "dos"))
    model = clf.train_classifier(
        data, cfg=TrainConfig(learning_rate=5e-3, epochs=30, seed=0), hidden=8)
    assert model.class_names[0] == "Benign"
    assert model.k_classes == 2


def test_train_classifier_validation():
    single = blobs(labels=("benign", "benign"))
    with pytest.raises(ValueError, match="single class"):
        clf.train_classifier(single, cfg=TrainConfig(epochs=1))
    unlabeled = [emb([0.0, 0.0]), emb([1.0, 1.0], "x")]
    with pytest.raises(ValueError, match="label"):
        clf.train_classifier(unlabeled, cfg=TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        clf.train_classifier([], cfg=TrainConfig(epochs=1))


def test_predict_proba_single_and_batch():
    data = blobs()
    model = clf.train_classifier(data, cfg=TrainConfig(epochs=5, seed=2), hidden=8)
    single = clf.predict_proba(model, data[0].values)
    assert single.shape == (2,)
    assert single.sum() == pytest.approx(1.0)
    batch = clf.predict_proba(model, np.stack([e.values for e in data[:7]]))
    assert batch.shape == (7, 2)
    np.testing.assert_allclose(batch[0], single)
    with pytest.raises(ValueError, match="width"):
        clf.predict_proba(model, np.zeros(5))


# --------------------------------------------------------------- evaluate

class StubPredictor:
    """Fixed mapping from first coordinate to a label."""
    class_names = ["benign", "attack"]

    def predict_label(self, values):
        return "attack" if values[0] > 0.5 else "benign"


def test_evaluate_with_duck_typed_predictor():
    data = [emb([0.0], "benign"), emb([1.0], "attack"),
            emb([0.9], "benign"), emb([0.2], "benign")]
    report = clf.evaluate(StubPredictor(), data)
    assert report.accuracy == pytest.approx(0.75)
    np.testing.assert_array_equal(report.confusion, [[2, 1], [0, 1]])
    assert report.f1 == pytest.approx(2 / 3)
    assert report.inference_time_s > 0.0
    assert report.class_names == ["benign", "attack"]


def test_evaluate_rejects_unknown_label_and_empty():
    with pytest.raises(ValueError, match="not known"):
        clf.evaluate(StubPredictor(), [emb([0.0], "weird")])
    with pytest.raises(ValueError):
        clf.evaluate(StubPredictor(), [])


# ------------------------------------------------------------------ split

def test_stratified_split_counts_and_determinism():
    data = blobs(n_per_class=50)
    train, test = clf.stratified_split(data, test_fraction=0.2, seed=3)
    assert len(train) == 80 and len(test) == 20
    for side, n_expected in ((train, 40), (test, 10)):
        for label in ("benign", "attack"):
            assert sum(e.label == label for e in side) == n_expected
    train2, test2 = clf.stratified_split(data, test_fraction=0.2, seed=3)
    assert [e.flow_id for e in test] == [e.flow_id for e in test2]
    train3, test3 = clf.stratified_split(data, test_fraction=0.2, seed=4)
    assert [e.flow_id for e in test] != [e.flow_id for e in test3]


def test_stratified_split_preserves_order_and_partitions():
    data = blobs(n_per_class=25)
    ids = [e.flow_id for e in data]
    train, test = clf.stratified_split(data, seed=0)
    got = sorted(e.flow_id for e in train + test)
    assert got == sorted(ids)
    pos = {fid: i for i, fid in enumerate(ids)}
    train_pos = [pos[e.flow_id] for e in train]
    assert train_pos == sorted(train_pos)


def test_stratified_split_small_class_keeps_one_on_each_side():
    data = blobs(n_per_class=2) + [emb([0.5, 0.5], "rare", "r0"),
                                   emb([0.6, 0.6], "rare", "r1")]
    train, test = clf.stratified_split(data, test_fraction=0.2, seed=1)
    assert sum(e.label == "rare" for e in train) == 1
    assert sum(e.label == "rare" for e in test) == 1


def test_stratified_split_validates_fraction():
    with pytest.raises(ValueError):
        clf.stratified_split(blobs(), test_fraction=0.0)
    with pytest.raises(ValueError):
        clf.stratified_split(blobs(), test_fraction=1.0)


# ---------------------------------------------------------- serialization

def test_model_round_trip(tmp_path):
    data = blobs()
    model = clf.train_classifier(data, cfg=TrainConfig(epochs=5, seed=9), hidden=8)
    path = tmp_path / "clf.npz"
    clf.save_model(model, str(path), "ab" * 32, "cd" * 32)
    loaded = clf.load_model(str(path))
    assert loaded.class_names == model.class_names
    assert len(model.loss_curve) == 5 and loaded.loss_curve == model.loss_curve
    meta, _, _ = nn_core.load_artifact(
        str(path), fields=("rae_sha256", "packet_codes_sha256"))
    assert (meta["rae_sha256"], meta["packet_codes_sha256"]) == ("ab" * 32, "cd" * 32)
    x = np.stack([e.values for e in data[:5]])
    np.testing.assert_allclose(clf.predict_proba(loaded, x), clf.predict_proba(model, x))


def test_classifier_model_requires_softmax_head():
    net = DenseNet([Layer(np.eye(2), np.zeros(2), "identity")])
    with pytest.raises(ValueError):
        clf.ClassifierModel(net=net, class_names=["a", "b"])


