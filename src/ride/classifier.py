"""Teacher MLP over flow embeddings, plus the shared evaluation harness.

evaluate() is deliberately model-agnostic: anything exposing
predict_label(values) and class_names can be scored with it, so the MLP,
the distilled tree, and the quantized tree all report comparable metrics.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .nn_core import DenseNet, TrainConfig

DEFAULT_HIDDEN = 100


@dataclass
class ClassifierModel:
    net: DenseNet  # n_b -> hidden -> k, softmax output
    class_names: list[str]
    loss_curve: list[float] = field(default_factory=list)  # per training epoch

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError("need at least 2 classes")
        if self.net.output_dim != len(self.class_names):
            raise ValueError("net output dim disagrees with class count")
        if self.net.layers[-1].activation != "softmax":
            raise ValueError("classifier output layer must be softmax")

    @property
    def k_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_b(self) -> int:
        return self.net.input_dim

    def predict_label(self, values: np.ndarray) -> str:
        return predict_label(self, values)


@dataclass
class MetricsReport:
    accuracy: float
    f1: float
    confusion: np.ndarray  # rows = truth, cols = prediction
    inference_time_s: float
    class_names: list[str]


def encode_labels(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """Map label strings to dense integer ids.

    A case-insensitive "benign" class becomes id 0 when present, so that in
    the binary case class 1 is the attack/positive class; remaining names
    are sorted.
    """
    names = sorted(set(labels))
    benign = [n for n in names if n.lower() == "benign"]
    if benign:
        names = benign + [n for n in names if n.lower() != "benign"]
    index = {name: i for i, name in enumerate(names)}
    return names, np.array([index[l] for l in labels], dtype=np.int64)


def train_classifier(x: np.ndarray, labels: list[str], cfg: TrainConfig | None = None,
                     hidden: int = DEFAULT_HIDDEN) -> ClassifierModel:
    """Train the softmax MLP on flow embeddings, one row of x per label.

    Raises ValueError when fewer than two classes are present or any row
    is unlabeled.
    """
    cfg = cfg or TrainConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0 or len(x) != len(labels):
        raise ValueError(f"need one label per row of a non-empty matrix, got x of "
                         f"shape {x.shape} and {len(labels)} labels")
    if any(l is None for l in labels):
        raise ValueError("every row must carry a label")
    class_names, y = encode_labels(labels)
    if len(class_names) < 2:
        raise ValueError("training data contains a single class")
    trained, history = nn_core.train(
        nn_core.init_dense_net([x.shape[1], hidden, len(class_names)], ["relu", "softmax"],
                               seed=cfg.seed),
        x, y, "cross_entropy", cfg)
    return ClassifierModel(net=trained, class_names=class_names, loss_curve=history)


def predict_proba(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Class-probability vector of one row (or of each row of a batch);
    each sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_b:
        raise ValueError(f"embedding width {x.shape[-1]} != model input {model.n_b}")
    return nn_core.forward(model.net, x)


def predict_label(model: ClassifierModel, values: np.ndarray) -> str:
    probs = predict_proba(model, values)
    if probs.ndim != 1:
        raise ValueError("predict_label takes a single embedding")
    return model.class_names[int(np.argmax(probs))]


def metrics_from_predictions(y_true: np.ndarray, y_pred: np.ndarray,
                             k: int) -> tuple[float, float, np.ndarray]:
    """(accuracy, f1, confusion). Binary: F1 of class 1; else macro-F1."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("bad prediction arrays")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    accuracy = float(np.trace(confusion)) / float(y_true.size)

    def class_f1(c: int) -> float:
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        return float(2.0 * tp / denom) if denom > 0 else 0.0

    if k == 2:
        f1 = class_f1(1)
    else:
        f1 = float(np.mean([class_f1(c) for c in range(k)]))
    return accuracy, f1, confusion


def evaluate(predictor, x: np.ndarray, labels: list[str]) -> MetricsReport:
    """Score any predict_label-capable model on the rows of x against
    their labels.

    inference_time_s is the wall-clock time of the per-sample prediction
    loop over the whole batch.
    """
    if len(x) == 0 or len(x) != len(labels):
        raise ValueError(f"need one label per row of a non-empty batch, got "
                         f"{len(x)} rows and {len(labels)} labels")
    class_names = list(predictor.class_names)
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y_true = np.array([index[l] for l in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc} not known to the predictor") from None

    values = list(np.asarray(x, dtype=np.float64))
    t0 = time.perf_counter()
    predicted = [predictor.predict_label(v) for v in values]
    elapsed = time.perf_counter() - t0

    y_pred = np.array([index[p] for p in predicted], dtype=np.int64)
    accuracy, f1, confusion = metrics_from_predictions(y_true, y_pred, len(class_names))
    return MetricsReport(accuracy=accuracy, f1=f1, confusion=confusion,
                         inference_time_s=elapsed, class_names=class_names)


def stratified_split(labels: list[str], test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[list[int], list[int]]:
    """Seeded per-class split of the positions of labels into (train,
    test) index lists, each in ascending order."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(str(label), []).append(i)
    test_idx = set()
    for label in sorted(by_label):
        idx = by_label[label]
        n_test = int(round(test_fraction * len(idx)))
        if len(idx) >= 2:
            n_test = min(max(n_test, 1), len(idx) - 1)
        else:
            n_test = 0
        chosen = rng.choice(len(idx), size=n_test, replace=False)
        test_idx.update(idx[j] for j in chosen)
    train = [i for i in range(len(labels)) if i not in test_idx]
    return train, sorted(test_idx)


def save_model(model: ClassifierModel, path: str) -> None:
    nn_core.save_artifact(path, {"class_names": list(model.class_names),
                                 "loss_curve": model.loss_curve},
                          nets={"net": model.net})


def load_model(path: str) -> ClassifierModel:
    meta, nets, _ = nn_core.load_artifact(path, nets=("net",), fields=("class_names",))
    with nn_core.file_errors(path, "model"):
        return ClassifierModel(net=nets["net"], class_names=list(meta["class_names"]),
                               loss_curve=meta.get("loss_curve", []))
