"""Fold per-packet embeddings into a single fixed-width flow embedding.

A recursive autoencoder learns one composition cell (two embeddings in,
one out) plus a mirror reconstructor used only as the training signal and
for the greedy merge-order heuristic. Folding a flow applies the cell
repeatedly until one vector remains.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import nn_core, payload_autoencoder
from .nn_core import DenseNet, TrainConfig
from .packet_ingest import FlowRecord, extract_payload_vector
from .payload_autoencoder import AutoencoderBundle

logger = logging.getLogger(__name__)

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
    n_packets_folded: int
    label: str | None = None


@dataclass
class RaeBundle:
    composer: DenseNet       # 2*n_b -> n_b, tanh
    reconstructor: DenseNet  # n_b -> 2*n_b, tanh
    n_b: int
    final_recon_error: float
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)  # per training epoch

    def __post_init__(self):
        if self.composer.input_dim != 2 * self.n_b or self.composer.output_dim != self.n_b:
            raise ValueError("composer must map 2*n_b -> n_b")
        if self.reconstructor.input_dim != self.n_b or self.reconstructor.output_dim != 2 * self.n_b:
            raise ValueError("reconstructor must map n_b -> 2*n_b")


def encode_flows(bundle: AutoencoderBundle, flows: list[FlowRecord],
                 n_p: int | None = None) -> list[EmbeddedFlow]:
    """Run the payload compressor over every packet of every flow."""
    n_p = n_p if n_p is not None else bundle.n_p
    out = []
    for flow in flows:
        mat = np.stack([
            np.asarray(extract_payload_vector(pkt, n_p).values, dtype=np.float64)
            for pkt in flow.packets
        ])
        z = payload_autoencoder.encode_matrix(bundle, mat)
        out.append(EmbeddedFlow(flow_id=flow.flow_id, embeddings=np.atleast_2d(z),
                                label=flow.label))
    return out


def combine_pair(rae: RaeBundle, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != (rae.n_b,) or right.shape != (rae.n_b,):
        raise ValueError("pair members must each have shape (n_b,)")
    return nn_core.forward(rae.composer, np.concatenate([left, right]))


def reconstruction_error_pair(rae: RaeBundle, left: np.ndarray, right: np.ndarray) -> float:
    """Squared L2 between the concatenated pair and its round trip."""
    stacked = np.concatenate([np.asarray(left, np.float64), np.asarray(right, np.float64)])
    folded = combine_pair(rae, left, right)
    rebuilt = nn_core.forward(rae.reconstructor, folded)
    return float(np.sum((rebuilt - stacked) ** 2))


def sample_training_pairs(flows: list[EmbeddedFlow], pair_cap: int = DEFAULT_PAIR_CAP,
                          seed: int = 0) -> np.ndarray:
    """Adjacent-packet pairs as a (k, 2*n_b) matrix, capped by seeded sampling.

    Raises ValueError when no flow contributes a pair (all single-packet).
    """
    rows = []
    for flow in flows:
        e = flow.embeddings
        for i in range(e.shape[0] - 1):
            rows.append(np.concatenate([e[i], e[i + 1]]))
    if not rows:
        raise ValueError("no flow has >= 2 packets; cannot form training pairs")
    pairs = np.stack(rows)
    if pairs.shape[0] > pair_cap:
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = pairs[np.sort(rng.choice(pairs.shape[0], size=pair_cap, replace=False))]
    return pairs


def train_rae(pairs: np.ndarray, n_b: int, cfg: TrainConfig | None = None) -> RaeBundle:
    """Joint composer+reconstructor training on concatenated pairs."""
    cfg = cfg or TrainConfig()
    pairs = np.atleast_2d(np.asarray(pairs, dtype=np.float64))
    if pairs.shape[1] != 2 * n_b:
        raise ValueError(f"pair rows must have width 2*n_b={2 * n_b}")
    net = nn_core.init_dense_net([2 * n_b, n_b, 2 * n_b], ["tanh", "tanh"],
                                 seed=cfg.seed, weight_init_scale=cfg.weight_init_scale)
    trained, history = nn_core.train(net, pairs, pairs, "mse", cfg)
    final = nn_core.loss_mse(nn_core.forward(trained, pairs), pairs)
    return RaeBundle(
        composer=DenseNet([trained.layers[0]]),
        reconstructor=DenseNet([trained.layers[1]]),
        n_b=n_b,
        final_recon_error=final,
        seed=cfg.seed,
        loss_curve=history,
    )


def embed_flow(rae: RaeBundle, flow: EmbeddedFlow, order: str = "sequence") -> FlowEmbedding:
    """Fold a flow's packet embeddings into one vector.

    order="sequence" folds left to right in packet order; "greedy_min"
    repeatedly merges the adjacent pair with the lowest pair
    reconstruction error.
    """
    e = np.atleast_2d(flow.embeddings)
    n = e.shape[0]
    if n == 0:
        raise ValueError(f"flow {flow.flow_id} has no packets")
    if n == 1:
        return FlowEmbedding(flow_id=flow.flow_id, values=e[0].copy(),
                             n_packets_folded=1, label=flow.label)
    if order == "sequence":
        acc = e[0]
        for i in range(1, n):
            acc = combine_pair(rae, acc, e[i])
        return FlowEmbedding(flow_id=flow.flow_id, values=acc,
                             n_packets_folded=n, label=flow.label)
    if order == "greedy_min":
        work = [e[i] for i in range(n)]
        while len(work) > 1:
            errs = [reconstruction_error_pair(rae, work[i], work[i + 1])
                    for i in range(len(work) - 1)]
            i = int(np.argmin(errs))  # ties -> leftmost
            work[i:i + 2] = [combine_pair(rae, work[i], work[i + 1])]
        return FlowEmbedding(flow_id=flow.flow_id, values=work[0],
                             n_packets_folded=n, label=flow.label)
    raise ValueError(f"unknown fold order {order!r}")


def embed_flows(rae: RaeBundle, flows: list[EmbeddedFlow],
                order: str = "sequence") -> list[FlowEmbedding]:
    return [embed_flow(rae, f, order=order) for f in flows]


def fold_sequences(rae: RaeBundle, flows: list[EmbeddedFlow]) -> list[FlowEmbedding]:
    """The sequential fold of many flows in one batched pass: step i
    composes the running state of every flow longer than i with its
    (i+1)-th packet. Entry j equals embed_flow(rae, flows[j], "sequence")
    up to float64 rounding of the batched matrix product."""
    if not flows:
        return []
    lengths = np.array([np.atleast_2d(f.embeddings).shape[0] for f in flows])
    if lengths.min() == 0:
        raise ValueError("every flow needs at least one packet")
    codes = np.concatenate([np.atleast_2d(f.embeddings) for f in flows])
    first = np.cumsum(lengths) - lengths  # row of each flow's first packet
    state = codes[first]
    for i in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > i)
        state[live] = nn_core.forward(
            rae.composer, np.hstack([state[live], codes[first[live] + i]]))
    return [FlowEmbedding(flow_id=f.flow_id, values=state[j],
                          n_packets_folded=int(lengths[j]), label=f.label)
            for j, f in enumerate(flows)]


def sample_query_flows(flows: list[EmbeddedFlow], n_flows: int,
                       seed: int = 0) -> list[EmbeddedFlow]:
    """Random packet sequences for querying a teacher off its training flows.

    Each sequence copies the class and the length of a training flow drawn
    at random, and fills that length with packet codes drawn, with
    replacement, from every packet of every flow of that class. Mixing
    packets within a class gives realistic inputs that no real flow
    visits, so a student labeled on them learns the teacher's function
    and not only its training points.
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
    sequences = np.split(pool[rows], np.cumsum(lengths[sources])[:-1])
    return [EmbeddedFlow(flow_id=f"query#{q}", embeddings=seq, label=flows[s].label)
            for q, (s, seq) in enumerate(zip(sources, sequences))]


def prefix_embeddings(rae: RaeBundle, flow: EmbeddedFlow) -> list[FlowEmbedding]:
    """Every snapshot of the sequential fold: entry k holds the joint
    embedding after the first k+1 packets, so the last entry equals
    embed_flow(..., order="sequence").

    The first entry is the first packet's raw payload code, a point in
    the payload autoencoder's [0, 1] code space that no flow classifier
    trained on folded embeddings has seen; only the later entries are
    outputs of the fold.
    """
    e = np.atleast_2d(flow.embeddings)
    n = e.shape[0]
    if n == 0:
        raise ValueError(f"flow {flow.flow_id} has no packets")
    out = [FlowEmbedding(flow_id=f"{flow.flow_id}#1", values=e[0].copy(),
                         n_packets_folded=1, label=flow.label)]
    acc = e[0]
    for i in range(1, n):
        acc = combine_pair(rae, acc, e[i])
        out.append(FlowEmbedding(flow_id=f"{flow.flow_id}#{i + 1}", values=acc,
                                 n_packets_folded=i + 1, label=flow.label))
    return out


def flow_embeddings_to_csv(embeddings: list[FlowEmbedding], path: str) -> None:
    """flow_id,label,v_1..v_n_b — one row per flow, input order preserved."""
    if not embeddings:
        raise ValueError("nothing to write")
    n_b = embeddings[0].values.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow_id", "label"] + [f"v_{i + 1}" for i in range(n_b)])
        for emb in embeddings:
            writer.writerow([emb.flow_id, emb.label if emb.label is not None else ""]
                            + [repr(float(v)) for v in emb.values])


def flow_embeddings_from_csv(path: str) -> list[FlowEmbedding]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_b = len(header) - 2
        for row in reader:
            values = np.array([float(v) for v in row[2:]], dtype=np.float64)
            if values.shape[0] != n_b:
                raise ValueError("ragged embedding row")
            out.append(FlowEmbedding(flow_id=row[0], values=values,
                                     n_packets_folded=0,
                                     label=row[1] or None))
    return out


def save_rae(rae: RaeBundle, path: str, autoencoder_sha256: str) -> None:
    """The RAE, with the hash of the autoencoder file whose codes it folds."""
    nn_core.save_artifact(path, {"final_recon_error": rae.final_recon_error, "seed": rae.seed,
                                 "loss_curve": rae.loss_curve,
                                 "autoencoder_sha256": autoencoder_sha256},
                          nets={"composer": rae.composer, "reconstructor": rae.reconstructor})


def load_rae(path: str) -> RaeBundle:
    meta, nets, _ = nn_core.load_artifact(path, nets=("composer", "reconstructor"),
                                          fields=("final_recon_error", "seed"))
    return RaeBundle(composer=nets["composer"], reconstructor=nets["reconstructor"],
                     n_b=nets["composer"].output_dim,
                     final_recon_error=meta["final_recon_error"], seed=meta["seed"],
                     loss_curve=meta.get("loss_curve", []))


_PACKET_CODE_ARRAYS = ("codes", "offsets", "flow_ids", "labels")


def save_packet_codes(flows: list[EmbeddedFlow], path: str, autoencoder_sha256: str) -> None:
    """Every flow's packet codes in one file: `codes` stacks them, flow j
    owns rows offsets[j]:offsets[j + 1] and has flow_ids[j] and labels[j].
    The meta records the hash of the autoencoder file that encoded them."""
    lengths = [np.atleast_2d(f.embeddings).shape[0] for f in flows]
    nn_core.save_artifact(path, {"autoencoder_sha256": autoencoder_sha256}, arrays={
        "codes": np.concatenate([np.atleast_2d(f.embeddings) for f in flows]),
        "offsets": np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        "flow_ids": np.array([f.flow_id for f in flows], dtype=str),
        "labels": np.array([str(f.label) for f in flows], dtype=str),
    })


def load_packet_codes(path: str) -> list[EmbeddedFlow]:
    _meta, _, arrays = nn_core.load_artifact(path, arrays=_PACKET_CODE_ARRAYS)
    codes, offsets, flow_ids, labels = (arrays[k] for k in _PACKET_CODE_ARRAYS)
    n = flow_ids.size
    if (codes.ndim != 2 or flow_ids.ndim != 1 or offsets.shape != (n + 1,)
            or labels.shape != (n,)
            or offsets.dtype.kind != "i" or offsets[0] != 0 or offsets[-1] != codes.shape[0]
            or np.any(np.diff(offsets) < 1)):
        raise ValueError(f"bad model file {path}: codes {codes.shape}, offsets "
                         f"{offsets.shape} and {n} flows do not fit together")
    return [EmbeddedFlow(flow_id=str(flow_ids[j]), embeddings=codes[offsets[j]:offsets[j + 1]],
                         label=str(labels[j]))
            for j in range(n)]
