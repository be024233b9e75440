"""Fold per-packet embeddings into a single fixed-width flow embedding.

A recursive autoencoder learns one composition cell (two embeddings in,
one out); its mirror reconstructor is only the training signal and is not
kept. Folding a flow applies the cell left to right, one packet at a
time, so the flow has a joint state after every packet: fold_prefixes
computes them all for one flow, and fold_finals only the last one, the
flow's embedding, for many stacked flows in one batch.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import nn_core, packet_ingest, payload_autoencoder
from .nn_core import DenseNet, TrainConfig
from .packet_ingest import FlowRecord
from .payload_autoencoder import AutoencoderBundle

DEFAULT_PAIR_CAP = 20_000


@dataclass
class EmbeddedFlow:
    """A flow as an ordered (n_packets, n_b) matrix of packet embeddings."""
    flow_id: str
    embeddings: np.ndarray
    label: str | None = None


@dataclass
class FlowEmbedding:
    """The folded joint embedding for one flow."""
    flow_id: str
    values: np.ndarray  # (n_b,)
    label: str | None = None


@dataclass
class RaeBundle:
    composer: DenseNet  # 2*n_b -> n_b, tanh
    n_b: int
    final_recon_error: float  # of the composer and its training-only reconstructor
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)  # per training epoch

    def __post_init__(self):
        if (len(self.composer.layers) != 1 or self.composer.input_dim != 2 * self.n_b
                or self.composer.output_dim != self.n_b):
            raise ValueError("composer must be one layer mapping 2*n_b -> n_b")
        layer = self.composer.layers[0]
        if nn_core.stored_transposed(layer):  # every fold step is a plain product
            self.composer = DenseNet([nn_core.Layer(np.ascontiguousarray(layer.w), layer.b,
                                                    layer.activation)])


def encode_flows(bundle: AutoencoderBundle, flows: list[FlowRecord],
                 n_p: int | None = None) -> list[EmbeddedFlow]:
    """Run the payload compressor over every packet of every flow.

    Each flow's raw byte matrix is built straight from its packets'
    payloads as one buffer. With layer 0 stored transposed (as training
    stores it) the matrix ends at the flow's live width, the end of the
    CHUNK-column chunk holding its last nonzero byte, found here once from
    the bytes: the columns past it are zeros, whose chunks add exact
    zeros, so the encoder's one product per chunk of the matrix gives the
    bits of the full n_p-wide rows. An encoder with a C-order layer 0 gets
    those full rows.
    """
    n_p = n_p if n_p is not None else bundle.n_p
    if n_p != bundle.n_p:
        raise ValueError(f"row length {n_p} != n_p={bundle.n_p}")
    narrow = nn_core.stored_transposed(bundle.encoder.layers[0])
    out = []
    for flow in flows:
        width = n_p
        if narrow:
            last = max(len(pkt.payload[:n_p].rstrip(b"\0")) for pkt in flow.packets)
            width = min(n_p, -(-last // nn_core.CHUNK) * nn_core.CHUNK)
        z = payload_autoencoder.encode_matrix(
            bundle, packet_ingest.payload_matrix(flow.packets, width))
        out.append(EmbeddedFlow(flow_id=flow.flow_id, embeddings=z, label=flow.label))
    return out


def combine_pair(rae: RaeBundle, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The composer on one (n_b,) pair, or row by row on k pairs of (k, n_b)."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape or left.shape[-1:] != (rae.n_b,) or left.ndim > 2:
        raise ValueError("pair members must both have shape (n_b,) or (k, n_b)")
    return nn_core.forward(rae.composer, np.concatenate([left, right], axis=-1))


def sample_training_pairs(codes: np.ndarray, offsets: np.ndarray,
                          pair_cap: int = DEFAULT_PAIR_CAP, seed: int = 0) -> np.ndarray:
    """Adjacent-packet pairs of stacked flows (as stack_codes lays them out)
    as a (k, 2*n_b) matrix, capped by seeded sampling.

    Pair p is the p-th adjacent pair in flow order, then packet order. Its
    left member is a stacked code other than a flow's last, so its row is a
    window of the flat stacked codes, from which the chosen rows are copied.

    Raises ValueError when no flow contributes a pair (all single-packet).
    """
    left = np.setdiff1d(np.arange(len(codes)), offsets[1:] - 1)
    if not left.size:
        raise ValueError("no flow has >= 2 packets; cannot form training pairs")
    if left.size > pair_cap:
        rng = np.random.Generator(np.random.PCG64(seed))
        left = left[np.sort(rng.choice(left.size, size=pair_cap, replace=False))]
    n_b = codes.shape[1]  # window r * n_b: row r, then row r + 1
    return np.lib.stride_tricks.sliding_window_view(codes.ravel(), 2 * n_b)[::n_b][left]


def train_rae(pairs: np.ndarray, n_b: int, cfg: TrainConfig | None = None) -> RaeBundle:
    """Joint composer+reconstructor training on concatenated pairs."""
    cfg = cfg or TrainConfig()
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.float64))
    if pairs.shape[1] != 2 * n_b:
        raise ValueError(f"pair rows must have width 2*n_b={2 * n_b}")
    trained, history = nn_core.train(
        nn_core.init_dense_net([2 * n_b, n_b, 2 * n_b], ["tanh", "tanh"], seed=cfg.seed),
        pairs, pairs, "mse", cfg)
    final = nn_core.loss_mse(nn_core.forward(trained, pairs), pairs)
    return RaeBundle(
        composer=DenseNet([trained.layers[0]]),
        n_b=n_b,
        final_recon_error=final,
        seed=cfg.seed,
        loss_curve=history,
    )


def fold_prefixes(rae: RaeBundle, codes: np.ndarray) -> np.ndarray:
    """Every state of one flow's fold: row 0 is its first code, and row i
    combine_pair of row i - 1 and code i, the bits of a left fold of
    one-pair combine_pair calls.

    The states are the left half of one (packets, 2*n_b) buffer whose row
    i - 1 pairs state i - 1 with code i: step i is one product of that
    row, and it writes state i, with the bias and the activation, straight
    into row i. The result is a view of that half.
    """
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2:
        raise ValueError(f"a flow's codes must be a (packets, n_b) matrix, got {codes.shape}")
    if not len(codes):
        raise ValueError("flow 0 has no packets")
    layer, n_b = rae.composer.layers[0], rae.n_b
    wT, b, activation = layer.w.T, layer.b, layer.activation
    buf = np.empty((len(codes), 2 * n_b))
    buf[0, :n_b], buf[:-1, n_b:] = codes[0], codes[1:]  # the last row's right half goes unread
    for i in range(1, len(codes)):
        state = buf[i:i + 1, :n_b]
        np.matmul(buf[i - 1:i], wT, out=state)
        state += b
        nn_core.apply_activation(activation, state, out=state)
    return buf[:, :n_b]


def fold_finals(rae: RaeBundle, codes: np.ndarray, offsets, rows=None) -> np.ndarray:
    """Row j: the last state of flow j, which owns rows offsets[j]:offsets[j + 1]
    of the stacked codes (the layout of packet_codes.npz).

    The stacked codes are codes[rows] with `rows`, else codes; each step
    reads its codes through `rows`, so codes[rows] is never gathered. The
    flows are held longest first in one state array, so step i composes
    its leading rows, the flows longer than i, in one product through a
    pair buffer of (flows) x 2*n_b; a flow that ended keeps its row. A
    batch may differ from fold_prefixes in the last bits, because BLAS
    sums a many-row product differently from a one-row one.
    """
    codes = np.asarray(codes, dtype=np.float64)
    n_rows = len(codes) if rows is None else len(rows)
    if codes.ndim != 2 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != n_rows:
        raise ValueError(f"offsets must run from 0 to the {n_rows} rows of codes")
    rows = None if rows is None else np.asarray(rows)
    stacked = codes.__getitem__ if rows is None else lambda r: codes[rows[r]]
    offsets = np.asarray(offsets)
    lengths = offsets[1:] - offsets[:-1]
    if lengths.min() < 1:
        raise ValueError(f"flow {int(np.argmin(lengths))} has no packets")
    by_length = np.argsort(-lengths, kind="stable")
    starts, lengths = offsets[by_length], lengths[by_length]  # longest first
    layer, n_b = rae.composer.layers[0], rae.n_b
    state, pair = stacked(starts), np.empty((len(starts), 2 * n_b))
    for i in range(1, lengths[0]):
        k = np.count_nonzero(lengths > i)  # the flows with an (i+1)-th packet
        pair[:k, :n_b], pair[:k, n_b:] = state[:k], stacked(starts[:k] + i)
        nn_core.affine_into(layer, pair[:k], out=state[:k])
    finals = np.empty_like(state)
    finals[by_length] = state
    return finals


def embed_flow(rae: RaeBundle, flow: EmbeddedFlow, order: str = "sequence") -> FlowEmbedding:
    """Fold a flow's packet embeddings, in packet order, into one vector."""
    if order != "sequence":
        raise ValueError(f"unknown fold order {order!r}")
    return FlowEmbedding(flow_id=flow.flow_id, values=fold_prefixes(rae, flow.embeddings)[-1],
                         label=flow.label)


def embed_flows(rae: RaeBundle, flows: list[EmbeddedFlow],
                order: str = "sequence") -> list[FlowEmbedding]:
    return [embed_flow(rae, f, order=order) for f in flows]


def sample_query_flows(flows: list[EmbeddedFlow], n_flows: int,
                       seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random packet sequences for querying a teacher off its training flows.

    Each sequence copies the class and the length of a training flow drawn
    at random, and fills that length with packet codes drawn, with
    replacement, from every packet of every flow of that class. Mixing
    packets within a class gives realistic inputs that no real flow
    visits, so a student labeled on them learns the teacher's function
    and not only its training points.

    Returns (pool, rows, offsets): the sequences stacked as stack_codes
    lays flows out are pool[rows], where pool holds every packet code of
    the flows once; sequence q owns entries offsets[q]:offsets[q + 1] of
    rows. The sequences are never gathered: fold_finals reads them
    through rows.
    """
    if not flows:
        raise ValueError("no flows to sample from")
    if any(f.label is None for f in flows):
        raise ValueError("every source flow must carry a label")
    classes = sorted({f.label for f in flows})
    by_class = [[f for f in flows if f.label == c] for c in classes]
    pool = np.concatenate([np.atleast_2d(f.embeddings) for group in by_class for f in group])
    pool_size = np.array([sum(np.atleast_2d(f.embeddings).shape[0] for f in group)
                          for group in by_class])
    pool_start = np.cumsum(pool_size) - pool_size  # each class's rows in pool
    class_of = np.array([classes.index(f.label) for f in flows])
    lengths = np.array([np.atleast_2d(f.embeddings).shape[0] for f in flows])

    rng = np.random.Generator(np.random.PCG64(seed))
    sources = rng.integers(0, len(flows), size=n_flows)
    packet_class = np.repeat(class_of[sources], lengths[sources])
    rows = pool_start[packet_class] + rng.integers(0, pool_size[packet_class])
    offsets = np.concatenate([[0], np.cumsum(lengths[sources])]).astype(np.int64)
    return pool, rows, offsets


def prefix_embeddings(rae: RaeBundle, flow: EmbeddedFlow) -> list[FlowEmbedding]:
    """Every snapshot of the sequential fold: entry k holds the joint
    embedding after the first k+1 packets, so the last entry equals
    embed_flow(rae, flow).

    The first entry is the first packet's raw payload code, a point in
    the payload autoencoder's [0, 1] code space that no flow classifier
    trained on folded embeddings has seen; only the later entries are
    outputs of the fold.
    """
    return [FlowEmbedding(flow_id=f"{flow.flow_id}#{k + 1}", values=state, label=flow.label)
            for k, state in enumerate(fold_prefixes(rae, flow.embeddings))]


def flow_embeddings_from_csv(path: str) -> list[FlowEmbedding]:
    """Read a header row, then flow_id,label,v_1..v_n_b per flow; an empty
    label reads as None."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_b = len(header) - 2
        for row in reader:
            values = np.array([float(v) for v in row[2:]], dtype=np.float64)
            if values.shape[0] != n_b:
                raise ValueError("ragged embedding row")
            out.append(FlowEmbedding(flow_id=row[0], values=values, label=row[1] or None))
    return out


def save_rae(rae: RaeBundle, path: str) -> None:
    nn_core.save_artifact(path, {"final_recon_error": rae.final_recon_error, "seed": rae.seed,
                                 "loss_curve": rae.loss_curve},
                          nets={"composer": rae.composer})


def load_rae(path: str) -> RaeBundle:
    """A file from before the composer was stored alone also holds the
    reconstructor; it is not read."""
    meta, nets, _ = nn_core.load_artifact(path, nets=("composer",),
                                          fields=("final_recon_error", "seed"))
    with nn_core.file_errors(path, "model"):
        return RaeBundle(composer=nets["composer"], n_b=nets["composer"].output_dim,
                         final_recon_error=meta["final_recon_error"], seed=meta["seed"],
                         loss_curve=meta.get("loss_curve", []))


_PACKET_CODE_ARRAYS = ("codes", "offsets", "flow_ids")


def stack_codes(flows: list[EmbeddedFlow]) -> tuple[np.ndarray, np.ndarray]:
    """The flows' packet codes stacked, and offsets: flow j owns rows
    offsets[j]:offsets[j + 1]."""
    lengths = [f.embeddings.shape[0] for f in flows]
    return (np.concatenate([f.embeddings for f in flows]),
            np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64))


def save_packet_codes(path: str, codes: np.ndarray, offsets: np.ndarray,
                      flows: list[EmbeddedFlow]) -> None:
    """The flows' packet codes in one file, as stack_codes(flows) lays them
    out in (codes, offsets); flow j has flow_ids[j] (ASCII bytes) and
    meta["labels"][j] (JSON keeps any str whole, where a numpy str array
    drops trailing NULs)."""
    nn_core.save_artifact(path, {"labels": [f.label for f in flows]}, arrays={
        "codes": codes, "offsets": offsets,
        "flow_ids": np.array([f.flow_id for f in flows], dtype="S")})


def load_packet_codes(path: str) -> list[EmbeddedFlow]:
    meta, _, arrays = nn_core.load_artifact(path, arrays=_PACKET_CODE_ARRAYS, fields=("labels",))
    codes, offsets, flow_ids = (arrays[k] for k in _PACKET_CODE_ARRAYS)
    labels = meta["labels"]
    if (codes.ndim != 2 or flow_ids.ndim != 1 or not isinstance(labels, list)
            or len(labels) != flow_ids.size
            or not nn_core.fits_offsets(offsets, flow_ids.size, codes.shape[0])):
        raise ValueError(f"bad model file {path}: codes {codes.shape}, offsets {offsets.shape}, "
                         f"{flow_ids.size} flow ids and the labels do not fit together")
    return [EmbeddedFlow(flow_id=flow_id, embeddings=codes[start:end], label=label)
            for flow_id, label, start, end in zip(flow_ids.astype(str).tolist(), labels,
                                                   offsets, offsets[1:])]
