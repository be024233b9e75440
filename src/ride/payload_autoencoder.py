"""Payload compression: train an autoencoder that maps raw payload byte
vectors onto a compact embedding, then expose encode-only inference.

Byte values are scaled into [0, 1] before entering the network; the
decoder's sigmoid output lives in the same scaled space. The decoder only
serves training and its reported error: the bundle keeps the encoder.
"""
from __future__ import annotations

import logging
import zlib
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
    # the training rows' live width (nn_core.live_width), past which layer
    # 0 keeps its initial weights; set by train_autoencoder and saved
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
    scaled, and only up to their live width (nn_core.live_width), into the
    one float64 copy that training reads as input and as target; the
    target's columns past it are zeros, which nn_core.train counts without
    holding them. nn_core.train trains the net _live_net builds, whose
    layer 0 keeps only those live columns; the untouched columns past them
    are then drawn again from the seed (_with_untrained_columns, as
    load_bundle draws them). The scaled copy is dropped before the error
    is measured, one block of rows at a time (reconstruction_error). The
    bundle keeps that live width as live_input_width, which save_bundle
    stores and cuts layer 0 at.
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
    trained, history = nn_core.train(_live_net(n_p, h, n_b, live, cfg.seed),
                                     train_x, train_x, "mse", cfg)
    del train_x
    if live < n_p:
        first, *rest = trained.layers
        trained = DenseNet([_with_untrained_columns(first, n_p, cfg.seed), *rest])
    return AutoencoderBundle(encoder=DenseNet(trained.layers[:2]), n_p=n_p, n_b=n_b, h=h,
                             final_train_mse=reconstruction_error(trained, payloads),
                             seed=cfg.seed, loss_curve=history, live_input_width=live)


def _live_net(n_p: int, h: int, n_b: int, live: int, seed: int) -> DenseNet:
    """The untrained autoencoder n_p -> h -> n_b -> h -> n_p as
    init_dense_net draws it with seed, but for layer 0 when live < n_p:
    that keeps only its first live columns, stored transposed, so it runs
    through nn_core.chunked_affine and takes rows cut at live."""
    net = nn_core.init_dense_net([n_p, h, n_b, h, n_p], ["relu", "sigmoid", "relu", "sigmoid"],
                                 seed=seed)
    if live == n_p:
        return net
    first = net.layers[0]
    w = np.ascontiguousarray(first.w[:, :live].T).T
    return DenseNet([nn_core.Layer(w, first.b, first.activation), *net.layers[1:]])


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
    train_autoencoder stores it when its rows end in zero padding), only a
    block's own live width is scaled and multiplied, and the error is formed in
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
    """Write the bundle to path through nn_core.save_artifact.

    When layer 0 is stored transposed and its columns from
    live_input_width on are still the initial weights init_dense_net drew
    from the bundle's seed (so training never moved them), the file keeps
    only the columns before them, and meta gets n_p and untrained_crc32,
    the CRC-32 of the columns left out, as the rows of w0.T; load_bundle
    draws them again. Otherwise encoder.w0 is stored whole.
    """
    meta = {"final_train_mse": bundle.final_train_mse, "seed": bundle.seed,
            "loss_curve": bundle.loss_curve}
    encoder, live = bundle.encoder, bundle.live_input_width
    if live is not None:
        meta["live_input_width"] = live
        first = encoder.layers[0]
        if live < bundle.n_p and nn_core.stored_transposed(first) and _initial_past(
                first.w, live, bundle.seed):
            meta.update(n_p=bundle.n_p, untrained_crc32=zlib.crc32(first.w.T[live:]))
            encoder = DenseNet([nn_core.Layer(first.w[:, :live], first.b, first.activation),
                                *encoder.layers[1:]])
    nn_core.save_artifact(path, meta, nets={"encoder": encoder})


def _initial_past(w: np.ndarray, live: int, seed: int) -> bool:
    """Whether w's columns from live on are those of the first layer
    init_dense_net draws with seed, bit for bit."""
    return all(np.array_equal(rows[:, live:].view(np.uint64),
                              w[lo:lo + len(rows), live:].view(np.uint64))
               for lo, rows in nn_core.initial_first_layer(seed, *w.shape[::-1]))


def load_bundle(path: str) -> AutoencoderBundle:
    """The bundle save_bundle wrote to path. A file that keeps only the
    first live_input_width columns of encoder.w0 gets the others drawn
    again from its seed, written straight into the rows of a new w0.T;
    when their CRC-32 is not the untrained_crc32 recorded, it raises
    ValueError("bad model file {path}: ..."). A file with no
    live_input_width (written before it was saved) loads with None."""
    meta, nets, _ = nn_core.load_artifact(path, nets=("encoder",),
                                          fields=("final_train_mse", "seed"))
    encoder = nets["encoder"]
    with nn_core.file_errors(path, "model"):
        if "untrained_crc32" in meta:
            first = encoder.layers[0]
            stored, n_p = first.w.shape[1], meta["n_p"]
            if stored != meta["live_input_width"] or not (type(n_p) is int and n_p > stored):
                raise ValueError(f"encoder.w0 has {stored} columns, for live_input_width "
                                 f"{meta['live_input_width']!r} of n_p {n_p!r}")
            first = _with_untrained_columns(first, n_p, meta["seed"])
            if zlib.crc32(first.w.T[stored:]) != meta["untrained_crc32"]:
                raise ValueError(f"encoder.w0's columns from {stored} on do not draw again "
                                 f"from seed {meta['seed']!r}: their CRC-32 is not "
                                 "untrained_crc32")
            encoder = DenseNet([first, *encoder.layers[1:]])
        live = meta.get("live_input_width")
        if live is not None and not (type(live) is int and 0 <= live <= encoder.input_dim):
            raise ValueError(f"live_input_width {live!r} is not a width of layer 0")
    return AutoencoderBundle(encoder=encoder, n_p=encoder.input_dim,
                             n_b=encoder.output_dim, h=encoder.layers[0].w.shape[0],
                             final_train_mse=meta["final_train_mse"], seed=meta["seed"],
                             loss_curve=meta.get("loss_curve", []), live_input_width=live)


def _with_untrained_columns(first: nn_core.Layer, n_p: int, seed: int) -> nn_core.Layer:
    """first, a layer 0 of the first live columns, widened to n_p and
    stored transposed: the new columns drawn as init_dense_net draws them
    with seed, straight into the rows of a new w0.T."""
    h, live = first.w.shape
    w_t = np.empty((n_p, h))
    w_t[:live] = first.w.T
    for lo, rows in nn_core.initial_first_layer(seed, n_p, h):
        w_t[live:, lo:lo + len(rows)] = rows[:, live:].T
    return nn_core.Layer(w_t.T, first.b, first.activation)
