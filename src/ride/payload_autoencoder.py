"""Payload compression: train an autoencoder that maps raw payload byte
vectors onto a compact embedding, then expose encode-only inference.

Byte values are scaled into [0, 1] before entering the network; the
decoder's sigmoid output lives in the same scaled space. The decoder only
serves training and its reported error: the bundle keeps the encoder.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .nn_core import DenseNet, TrainConfig

logger = logging.getLogger(__name__)

DEFAULT_N_B = 100
DEFAULT_HIDDEN = 512
DEFAULT_SAMPLE_CAP = 50_000

BYTE_SCALE = 255.0
# rows per block of reconstruction_error
ERROR_BLOCK = 256


@dataclass
class AutoencoderBundle:
    encoder: DenseNet  # n_p -> h -> n_b
    n_p: int
    n_b: int
    h: int
    final_train_mse: float
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)  # per training epoch
    # the training rows' live width (nn_core.live_width); set by
    # train_autoencoder, not saved
    live_input_width: int | None = None

    def __post_init__(self):
        if self.encoder.input_dim != self.n_p or self.encoder.output_dim != self.n_b:
            raise ValueError("encoder dims disagree with n_p/n_b")


def _scaled(raw: np.ndarray) -> np.ndarray:
    """Raw 0-255 rows scaled into [0, 1], as one new float64 matrix."""
    return np.divide(np.atleast_2d(raw), BYTE_SCALE, dtype=np.float64)


def training_rows(x: np.ndarray, sample_cap: int, seed: int | None) -> np.ndarray:
    """The rows of x the autoencoder trains on: all of them, or a sorted
    sample of sample_cap rows drawn with seed."""
    n = x.shape[0]
    if n <= sample_cap:
        return x
    rng = np.random.Generator(np.random.PCG64(seed))
    return x[np.sort(rng.choice(n, size=sample_cap, replace=False))]


def train_autoencoder(
    payloads,
    n_b: int = DEFAULT_N_B,
    h: int = DEFAULT_HIDDEN,
    cfg: TrainConfig | None = None,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> AutoencoderBundle:
    """Train the compressor and keep its encoder.

    final_train_mse is the trained autoencoder's reconstruction error over
    the full input batch (scaled space), even when training ran on a
    capped subsample. payloads is a matrix of raw 0-255 rows, such as
    packet_ingest.payload_matrix's uint8 one: only the training rows are
    scaled, and only up to their live width (nn_core.live_width),
    into the one float64 copy that training reads as input and as target;
    the columns past it are zeros, which nn_core.train counts without
    holding them. That copy is dropped before the error is measured,
    one block of rows at a time (reconstruction_error). The bundle keeps
    that live width as live_input_width, which is not saved.
    """
    cfg = cfg or TrainConfig()
    rows = training_rows(np.atleast_2d(payloads), sample_cap, cfg.seed)
    n, n_p = rows.shape
    if n == 0:
        raise ValueError("empty payload batch")
    if not 1 <= n_b < n_p:
        raise ValueError(f"n_b={n_b} must satisfy 1 <= n_b < n_p={n_p} (not a compression)")
    if h < n_b:
        logger.warning("hidden width h=%d below bottleneck n_b=%d; capacity may suffer", h, n_b)

    live = nn_core.live_width(rows)
    train_x = _scaled(rows[:, :live])
    del rows
    trained, history = nn_core.train(
        nn_core.init_dense_net([n_p, h, n_b, h, n_p], ["relu", "sigmoid", "relu", "sigmoid"],
                               seed=cfg.seed),
        train_x, train_x, "mse", cfg)
    del train_x
    return AutoencoderBundle(encoder=DenseNet(trained.layers[:2]), n_p=n_p, n_b=n_b, h=h,
                             final_train_mse=reconstruction_error(trained, payloads),
                             seed=cfg.seed, loss_curve=history, live_input_width=live)


def encode_matrix(bundle: AutoencoderBundle, x_raw: np.ndarray) -> np.ndarray:
    """Batch encode of raw 0-255 rows; preserves row order. An encoder
    trained here (or loaded from a file it was saved to) keeps layer 0
    transposed, so it runs one product per CHUNK columns of the rows
    (nn_core.chunked_affine), and the rows may be narrower than n_p: the
    missing columns count as zeros. Rows cut at their live width
    (nn_core.live_width) thus pay no multiply for their zero padding."""
    x = _scaled(x_raw)
    if x.shape[1] > bundle.n_p:
        raise ValueError(f"row length {x.shape[1]} > n_p={bundle.n_p}")
    return nn_core.forward(bundle.encoder, x)


def reconstruction_error(net: DenseNet, payloads) -> float:
    """Mean squared L2 distance between scaled input and its round trip
    through a full autoencoder net (encoder then decoder).

    The rows run through the net in blocks of at most ERROR_BLOCK rows,
    of even size (np.array_split, so no block is a short tail; a batch of
    at most ERROR_BLOCK rows is one block), and the mean is taken over
    the n row sums of squared errors. With layer 0 stored transposed (as
    training stores it when the rows end in zero padding), only a block's
    own live width is scaled and multiplied, and the error is formed in
    the output: x is subtracted from its live columns (past them x is 0,
    and pred - 0 is pred bit for bit), then squared in place. Each row's
    sum is thus that of loss_mse on the full-width rows, but for BLAS: it
    may round a row's output differently in a block than in the full
    batch (in the last place), which the sum over n_p squared terms
    nearly always absorbs. Of the batch it holds the row sums and, per
    block, the output (ERROR_BLOCK x n_p float64), the hidden activations
    and the scaled live columns.
    """
    raw = np.atleast_2d(payloads)
    if raw.shape[0] == 0:
        raise ValueError("empty payload batch")
    if net.output_dim != raw.shape[1]:
        raise ValueError(f"net output dim {net.output_dim} != payload width {raw.shape[1]}")
    blocks = np.array_split(raw, -(-len(raw) // ERROR_BLOCK))
    return float(np.concatenate([_row_errors(net, block) for block in blocks]).mean())


def _row_errors(net: DenseNet, raw: np.ndarray) -> np.ndarray:
    """Each raw row's squared L2 distance from its round trip, formed in
    the net's output, which is freed on return."""
    if nn_core.stored_transposed(net.layers[0]):
        raw = raw[:, :nn_core.live_width(raw)]
    x = _scaled(raw)
    d = nn_core.forward(net, x)
    live = d[:, :x.shape[1]]
    np.subtract(live, x, out=live)
    np.square(d, out=d)
    return d.sum(axis=1)


def save_bundle(bundle: AutoencoderBundle, path: str) -> None:
    nn_core.save_artifact(path, {"final_train_mse": bundle.final_train_mse,
                                 "seed": bundle.seed, "loss_curve": bundle.loss_curve},
                          nets={"encoder": bundle.encoder})


def load_bundle(path: str) -> AutoencoderBundle:
    meta, nets, _ = nn_core.load_artifact(path, nets=("encoder",),
                                          fields=("final_train_mse", "seed"))
    encoder = nets["encoder"]
    return AutoencoderBundle(encoder=encoder, n_p=encoder.input_dim,
                             n_b=encoder.output_dim, h=encoder.layers[0].w.shape[0],
                             final_train_mse=meta["final_train_mse"], seed=meta["seed"],
                             loss_curve=meta.get("loss_curve", []))
