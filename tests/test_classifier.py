import numpy as np
import pytest

from ride import classifier as clf
from ride.nn_core import DenseNet, Layer, TrainConfig


def points(*rows):
    """(x, labels) from (values, label) pairs."""
    return (np.array([values for values, _ in rows], dtype=np.float64),
            [label for _, label in rows])


def blobs(n_per_class=40, centers=((0.2, 0.2), (0.8, 0.8)), labels=("benign", "attack"),
          seed=0, spread=0.08):
    """(x, labels): n_per_class normal points around each center."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.concatenate([rng.normal(loc=center, scale=spread, size=(n_per_class, len(center)))
                        for center in centers])
    return x, [label for label in labels for _ in range(n_per_class)]


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
    x, labels = blobs()
    model = clf.train_classifier(
        x, labels, cfg=TrainConfig(learning_rate=5e-3, batch_size=16, epochs=60, seed=1),
        hidden=16)
    assert model.class_names == ["benign", "attack"]  # benign pinned to id 0
    preds = [model.predict_label(v) for v in x]
    acc = np.mean([p == label for p, label in zip(preds, labels)])
    assert acc == 1.0


def test_train_classifier_benign_is_class_zero():
    x, labels = blobs(labels=("Benign", "dos"))
    model = clf.train_classifier(
        x, labels, cfg=TrainConfig(learning_rate=5e-3, epochs=30, seed=0), hidden=8)
    assert model.class_names[0] == "Benign"
    assert model.k_classes == 2


def test_train_classifier_validation():
    single = blobs(labels=("benign", "benign"))
    with pytest.raises(ValueError, match="single class"):
        clf.train_classifier(*single, cfg=TrainConfig(epochs=1))
    unlabeled = points(([0.0, 0.0], None), ([1.0, 1.0], "x"))
    with pytest.raises(ValueError, match="label"):
        clf.train_classifier(*unlabeled, cfg=TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        clf.train_classifier(np.empty((0, 2)), [], cfg=TrainConfig(epochs=1))


def test_predict_proba_single_and_batch():
    x, labels = blobs()
    model = clf.train_classifier(x, labels, cfg=TrainConfig(epochs=5, seed=2), hidden=8)
    single = clf.predict_proba(model, x[0])
    assert single.shape == (2,)
    assert single.sum() == pytest.approx(1.0)
    batch = clf.predict_proba(model, x[:7])
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
    x, labels = points(([0.0], "benign"), ([1.0], "attack"),
                       ([0.9], "benign"), ([0.2], "benign"))
    report = clf.evaluate(StubPredictor(), x, labels)
    assert report.accuracy == pytest.approx(0.75)
    np.testing.assert_array_equal(report.confusion, [[2, 1], [0, 1]])
    assert report.f1 == pytest.approx(2 / 3)
    assert report.inference_time_s > 0.0
    assert report.class_names == ["benign", "attack"]


def test_evaluate_rejects_unknown_label_and_empty():
    with pytest.raises(ValueError, match="not known"):
        clf.evaluate(StubPredictor(), *points(([0.0], "weird")))
    with pytest.raises(ValueError):
        clf.evaluate(StubPredictor(), np.empty((0, 1)), [])


# ------------------------------------------------------------------ split

def test_stratified_split_counts_and_determinism():
    _x, labels = blobs(n_per_class=50)
    train, test = clf.stratified_split(labels, test_fraction=0.2, seed=3)
    assert len(train) == 80 and len(test) == 20
    for side, n_expected in ((train, 40), (test, 10)):
        for label in ("benign", "attack"):
            assert sum(labels[i] == label for i in side) == n_expected
    train2, test2 = clf.stratified_split(labels, test_fraction=0.2, seed=3)
    assert test == test2
    train3, test3 = clf.stratified_split(labels, test_fraction=0.2, seed=4)
    assert test != test3


def test_stratified_split_preserves_order_and_partitions():
    _x, labels = blobs(n_per_class=25)
    train, test = clf.stratified_split(labels, seed=0)
    assert sorted(train + test) == list(range(len(labels)))
    assert train == sorted(train)


def test_stratified_split_small_class_keeps_one_on_each_side():
    labels = blobs(n_per_class=2)[1] + ["rare", "rare"]
    train, test = clf.stratified_split(labels, test_fraction=0.2, seed=1)
    assert sum(labels[i] == "rare" for i in train) == 1
    assert sum(labels[i] == "rare" for i in test) == 1


def test_stratified_split_validates_fraction():
    with pytest.raises(ValueError):
        clf.stratified_split(blobs()[1], test_fraction=0.0)
    with pytest.raises(ValueError):
        clf.stratified_split(blobs()[1], test_fraction=1.0)


# ---------------------------------------------------------- serialization

def test_model_round_trip(tmp_path):
    x, labels = blobs()
    model = clf.train_classifier(x, labels, cfg=TrainConfig(epochs=5, seed=9), hidden=8)
    path = tmp_path / "clf.npz"
    clf.save_model(model, str(path))
    loaded = clf.load_model(str(path))
    assert loaded.class_names == model.class_names
    assert len(model.loss_curve) == 5 and loaded.loss_curve == model.loss_curve
    x = x[:5]
    np.testing.assert_allclose(clf.predict_proba(loaded, x), clf.predict_proba(model, x))


def test_classifier_model_requires_softmax_head():
    net = DenseNet([Layer(np.eye(2), np.zeros(2), "identity")])
    with pytest.raises(ValueError):
        clf.ClassifierModel(net=net, class_names=["a", "b"])


