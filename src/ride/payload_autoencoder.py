"""Payload compression: train an autoencoder that maps raw payload byte
vectors onto a compact embedding, then expose encode-only inference.

Byte values are scaled into [0, 1] before entering the network; the
decoder's sigmoid output lives in the same scaled space. The decoder only
serves training and its reported error: the bundle keeps the encoder.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .nn_core import DenseNet, TrainConfig
from .packet_ingest import PayloadVector

logger = logging.getLogger(__name__)

DEFAULT_N_B = 100
DEFAULT_HIDDEN = 512
DEFAULT_SAMPLE_CAP = 50_000

BYTE_SCALE = 255.0


@dataclass
class CompressedEmbedding:
    values: np.ndarray  # (n_b,)
    flow_id: str = ""
    packet_index: int = 0


@dataclass
class AutoencoderBundle:
    encoder: DenseNet  # n_p -> h -> n_b
    n_p: int
    n_b: int
    h: int
    final_train_mse: float
    seed: int = 0

    def __post_init__(self):
        if self.encoder.input_dim != self.n_p or self.encoder.output_dim != self.n_b:
            raise ValueError("encoder dims disagree with n_p/n_b")


def payloads_to_matrix(payloads) -> np.ndarray:
    """Stack payload vectors into a raw 0-255 float64 matrix."""
    if isinstance(payloads, np.ndarray):
        return np.atleast_2d(payloads.astype(np.float64))
    return np.stack([np.asarray(p.values, dtype=np.float64) for p in payloads])


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
    capped subsample.
    """
    cfg = cfg or TrainConfig()
    x = payloads_to_matrix(payloads) / BYTE_SCALE
    n, n_p = x.shape
    if n == 0:
        raise ValueError("empty payload batch")
    if not 1 <= n_b < n_p:
        raise ValueError(f"n_b={n_b} must satisfy 1 <= n_b < n_p={n_p} (not a compression)")
    if h < n_b:
        logger.warning("hidden width h=%d below bottleneck n_b=%d; capacity may suffer", h, n_b)

    train_x = x
    if n > sample_cap:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        train_x = x[np.sort(rng.choice(n, size=sample_cap, replace=False))]

    net = nn_core.init_dense_net(
        [n_p, h, n_b, h, n_p],
        ["relu", "sigmoid", "relu", "sigmoid"],
        seed=cfg.seed,
        weight_init_scale=cfg.weight_init_scale,
    )
    trained, _history = nn_core.train(net, train_x, train_x, "mse", cfg)

    return AutoencoderBundle(encoder=DenseNet(trained.layers[:2]), n_p=n_p, n_b=n_b, h=h,
                             final_train_mse=reconstruction_error(trained, payloads),
                             seed=cfg.seed)


def encode(bundle: AutoencoderBundle, payload: PayloadVector,
           flow_id: str = "", packet_index: int = 0) -> CompressedEmbedding:
    """Compress one payload vector; pure and deterministic."""
    values = np.asarray(payload.values, dtype=np.float64)
    if values.shape != (bundle.n_p,):
        raise ValueError(f"payload length {values.shape} != n_p={bundle.n_p}")
    z = nn_core.forward(bundle.encoder, values / BYTE_SCALE)
    return CompressedEmbedding(values=z, flow_id=flow_id, packet_index=packet_index)


def encode_matrix(bundle: AutoencoderBundle, x_raw: np.ndarray) -> np.ndarray:
    """Batch encode of raw 0-255 rows; preserves row order."""
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    if x_raw.shape[1] != bundle.n_p:
        raise ValueError(f"row length {x_raw.shape[1]} != n_p={bundle.n_p}")
    return nn_core.forward(bundle.encoder, x_raw / BYTE_SCALE)


def reconstruction_error(net: DenseNet, payloads) -> float:
    """Mean squared L2 distance between scaled input and its round trip
    through a full autoencoder net (encoder then decoder)."""
    x = payloads_to_matrix(payloads) / BYTE_SCALE
    if x.shape[0] == 0:
        raise ValueError("empty payload batch")
    return nn_core.loss_mse(nn_core.forward(net, x), x)


def save_bundle(bundle: AutoencoderBundle, path: str) -> None:
    nn_core.save_artifact(path, {"final_train_mse": bundle.final_train_mse,
                                 "seed": bundle.seed},
                          nets={"encoder": bundle.encoder})


def load_bundle(path: str) -> AutoencoderBundle:
    meta, nets, _ = nn_core.load_artifact(path, nets=("encoder",),
                                          fields=("final_train_mse", "seed"))
    encoder = nets["encoder"]
    return AutoencoderBundle(encoder=encoder, n_p=encoder.input_dim,
                             n_b=encoder.output_dim, h=encoder.layers[0].w.shape[0],
                             final_train_mse=meta["final_train_mse"], seed=meta["seed"])
