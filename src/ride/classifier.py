"""Teacher MLP over flow embeddings, plus the shared evaluation harness.

evaluate() is deliberately model-agnostic: anything exposing
predict_label(values) and class_names can be scored with it, so the MLP,
the distilled tree, and the quantized tree all report comparable metrics.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .nn_core import DenseNet, TrainConfig
from .flow_embedder import FlowEmbedding

DEFAULT_HIDDEN = 100


@dataclass
class ClassifierModel:
    net: DenseNet  # n_b -> hidden -> k, softmax output
    class_names: list[str]

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


def _embedding_matrix(embeddings: list[FlowEmbedding]) -> np.ndarray:
    if not embeddings:
        raise ValueError("empty embedding batch")
    return np.stack([np.asarray(e.values, dtype=np.float64) for e in embeddings])


def train_classifier(embeddings: list[FlowEmbedding], cfg: TrainConfig | None = None,
                     hidden: int = DEFAULT_HIDDEN) -> ClassifierModel:
    """Train the softmax MLP on labeled flow embeddings.

    Raises ValueError when fewer than two classes are present or any flow
    is unlabeled.
    """
    cfg = cfg or TrainConfig()
    x = _embedding_matrix(embeddings)
    raw_labels = [e.label for e in embeddings]
    if any(l is None for l in raw_labels):
        raise ValueError("all embeddings must carry a label")
    class_names, y = encode_labels(raw_labels)
    if len(class_names) < 2:
        raise ValueError("training data contains a single class")
    net = nn_core.init_dense_net(
        [x.shape[1], hidden, len(class_names)],
        ["relu", "softmax"],
        seed=cfg.seed,
        weight_init_scale=cfg.weight_init_scale,
    )
    trained, _history = nn_core.train(net, x, y, "cross_entropy", cfg)
    return ClassifierModel(net=trained, class_names=class_names)


def _values_of(embedding) -> np.ndarray:
    if isinstance(embedding, FlowEmbedding):
        return np.asarray(embedding.values, dtype=np.float64)
    return np.asarray(embedding, dtype=np.float64)


def predict_proba(model: ClassifierModel, embedding) -> np.ndarray:
    """Class-probability vector (or batch of them); rows sum to 1."""
    x = _values_of(embedding)
    if x.shape[-1] != model.n_b:
        raise ValueError(f"embedding width {x.shape[-1]} != model input {model.n_b}")
    return nn_core.forward(model.net, x)


def predict_label(model: ClassifierModel, embedding) -> str:
    probs = predict_proba(model, _values_of(embedding))
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
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    accuracy = float(np.trace(confusion)) / float(y_true.size)

    def class_f1(c: int) -> float:
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        return 2.0 * tp / denom if denom > 0 else 0.0

    if k == 2:
        f1 = class_f1(1)
    else:
        f1 = float(np.mean([class_f1(c) for c in range(k)]))
    return accuracy, f1, confusion


def evaluate(predictor, embeddings: list[FlowEmbedding]) -> MetricsReport:
    """Score any predict_label-capable model on labeled embeddings.

    inference_time_s is the wall-clock time of the per-sample prediction
    loop over the whole batch.
    """
    if not embeddings:
        raise ValueError("empty evaluation batch")
    class_names = list(predictor.class_names)
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y_true = np.array([index[e.label] for e in embeddings], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc} not known to the predictor") from None

    values = [np.asarray(e.values, dtype=np.float64) for e in embeddings]
    t0 = time.perf_counter()
    predicted = [predictor.predict_label(v) for v in values]
    elapsed = time.perf_counter() - t0

    y_pred = np.array([index[p] for p in predicted], dtype=np.int64)
    accuracy, f1, confusion = metrics_from_predictions(y_true, y_pred, len(class_names))
    return MetricsReport(accuracy=accuracy, f1=f1, confusion=confusion,
                         inference_time_s=elapsed, class_names=class_names)


def stratified_split(embeddings: list[FlowEmbedding], test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[list[FlowEmbedding], list[FlowEmbedding]]:
    """Seeded per-class split; corpus order is preserved within each side."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    by_label: dict[str, list[int]] = {}
    for i, e in enumerate(embeddings):
        by_label.setdefault(str(e.label), []).append(i)
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
    train = [e for i, e in enumerate(embeddings) if i not in test_idx]
    test = [e for i, e in enumerate(embeddings) if i in test_idx]
    return train, test


def save_model(model: ClassifierModel, path: str, embeddings_sha256: str) -> None:
    """The classifier, with the hash of the embeddings file it learned from."""
    nn_core.save_artifact(path, {"class_names": list(model.class_names),
                                 "embeddings_sha256": embeddings_sha256},
                          nets={"net": model.net})


def load_model(path: str) -> ClassifierModel:
    meta, nets, _ = nn_core.load_artifact(path, nets=("net",), fields=("class_names",))
    return ClassifierModel(net=nets["net"], class_names=list(meta["class_names"]))
