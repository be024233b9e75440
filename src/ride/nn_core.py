"""Minimal dense feedforward network substrate with manual backprop.

Shared by the payload autoencoder, the pair-composition autoencoder and
the flow classifier. Everything runs in float64 so analytic gradients can
be checked against central finite differences. save_artifact and
load_artifact are the one writer and reader of every model file.
"""
from __future__ import annotations

import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity", "softmax")
LOSSES = ("mse", "cross_entropy")

PROB_FLOOR = 1e-12  # clamp applied to probabilities before log


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss turns NaN or Inf."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss diverged (NaN/Inf) at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.ndim != 2 or self.b.ndim != 1 or self.w.shape[0] != self.b.shape[0]:
            raise ValueError(f"inconsistent layer shapes w={self.w.shape} b={self.b.shape}")


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("DenseNet needs at least one layer")
        for k in range(1, len(self.layers)):
            if self.layers[k].w.shape[1] != self.layers[k - 1].w.shape[0]:
                raise ValueError(
                    f"layer {k} input dim {self.layers[k].w.shape[1]} does not chain "
                    f"with layer {k - 1} output dim {self.layers[k - 1].w.shape[0]}"
                )
        for k, layer in enumerate(self.layers):
            if layer.activation == "softmax" and k != len(self.layers) - 1:
                raise ValueError("softmax is only allowed as the final activation")
            if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
                raise ValueError(f"layer {k} has non-finite weights")

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return forward(self, x)

    def copy(self) -> "DenseNet":
        return DenseNet([Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers])


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    weight_init_scale: float = 1.0
    optimizer: str = "adam"  # "sgd" or "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def init_dense_net(
    dims: list[int],
    activations: list[str],
    seed: int = 0,
    weight_init_scale: float = 1.0,
) -> DenseNet:
    """Build a net with uniform init in [-s, s], s = scale / sqrt(fan_in)."""
    if len(dims) < 2 or len(activations) != len(dims) - 1:
        raise ValueError("need len(dims) >= 2 and one activation per layer")
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        s = weight_init_scale / np.sqrt(fan_in)
        w = rng.uniform(-s, s, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        layers.append(Layer(w, b, activations[k]))
    return DenseNet(layers)


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # split by sign to avoid overflow in exp
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    if name == "softmax":
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """dL/dz given dL/da, pre-activation z and activation a."""
    if name == "relu":
        return da * (z > 0)
    if name == "sigmoid":
        return da * a * (1.0 - a)
    if name == "tanh":
        return da * (1.0 - a * a)
    if name == "identity":
        return da
    if name == "softmax":
        # full Jacobian-vector product; exact for any loss on the probabilities
        inner = (da * a).sum(axis=-1, keepdims=True)
        return a * (da - inner)
    raise ValueError(f"unknown activation {name!r}")


def _forward_trace(net: DenseNet, x: np.ndarray):
    """Forward pass keeping pre-activations and activations per layer."""
    zs, acts = [], [x]
    a = x
    for k, layer in enumerate(net.layers):
        if a.shape[-1] != layer.w.shape[1]:
            raise ValueError(
                f"layer {k} expects input dim {layer.w.shape[1]}, got {a.shape[-1]}"
            )
        z = a @ layer.w.T + layer.b
        a = _apply_activation(layer.activation, z)
        zs.append(z)
        acts.append(a)
    return zs, acts


def forward(net: DenseNet, x) -> np.ndarray:
    """Run the net on a single vector or a (n, input_dim) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    _, acts = _forward_trace(net, x)
    out = acts[-1]
    return out[0] if single else out


def loss_mse(pred, target) -> float:
    """Mean over samples of the squared L2 distance."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise ValueError("empty batch")
    return float(((pred - target) ** 2).sum(axis=1).mean())


def loss_cross_entropy(pred_probs, labels) -> float:
    """Mean negative log-likelihood with probabilities clamped at 1e-12."""
    p = np.atleast_2d(np.asarray(pred_probs, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels))
    if p.shape[0] == 0:
        raise ValueError("empty batch")
    if y.shape[0] != p.shape[0]:
        raise ValueError(f"{p.shape[0]} rows but {y.shape[0]} labels")
    if not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise ValueError(f"label out of range [0, {p.shape[1]})")
    picked = p[np.arange(p.shape[0]), y.astype(int)]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _loss_value_and_grad(loss: str, pred: np.ndarray, target):
    n = pred.shape[0]
    if loss == "mse":
        target = np.atleast_2d(np.asarray(target, dtype=np.float64))
        value = loss_mse(pred, target)
        grad = 2.0 * (pred - target) / n
        return value, grad
    if loss == "cross_entropy":
        y = np.atleast_1d(np.asarray(target)).astype(int)
        value = loss_cross_entropy(pred, y)
        grad = np.zeros_like(pred)
        picked = pred[np.arange(n), y]
        live = picked >= PROB_FLOOR  # clamped entries have zero gradient
        rows = np.arange(n)[live]
        grad[rows, y[live]] = -1.0 / (n * picked[live])
        return value, grad
    raise ValueError(f"unknown loss {loss!r}")


def _backward(net: DenseNet, x: np.ndarray, target, loss: str, grads) -> float:
    """Loss value; the gradient of layer k's weight matrix and bias vector
    is written into the arrays grads[k] = (dw, db). The gradient with
    respect to the input is never formed: nothing reads it."""
    zs, acts = _forward_trace(net, x)
    value, da = _loss_value_and_grad(loss, acts[-1], target)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        dz = _activation_grad(layer.activation, zs[k], acts[k + 1], da)
        dw, db = grads[k]
        np.matmul(dz.T, acts[k], out=dw)
        np.sum(dz, axis=0, out=db)
        if k:
            da = dz @ layer.w
    return value


# Adam walks the flat buffers in blocks of this many float64 elements
# (512 KiB per buffer), so its passes over a block stay in cache.
ADAM_BLOCK = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _flat_views(buf: np.ndarray, layers: list[Layer]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views into buf, one pair per layer, laid out w0 b0 w1 b1 ..."""
    views, off = [], 0
    for layer in layers:
        w = buf[off:off + layer.w.size].reshape(layer.w.shape)
        off += layer.w.size
        views.append((w, buf[off:off + layer.b.size]))
        off += layer.b.size
    return views


def _adam_block(p, g, m, v, s1, s2, lr, b1, b2, corr1, corr2, eps) -> None:
    """One Adam update of a block in place, with the operations of
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= lr*(m/corr1) / (sqrt(v/corr2) + eps) in that order, so every
    element rounds as the out-of-place expressions do. s1, s2: scratch."""
    np.multiply(m, b1, out=m)
    np.multiply(g, 1 - b1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, g, out=s1)
    np.multiply(s1, 1 - b2, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, corr1, out=s2)
    np.multiply(s2, lr, out=s2)
    np.divide(v, corr2, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, eps, out=s1)
    np.divide(s2, s1, out=s2)
    np.subtract(p, s2, out=p)


class _Adam:
    """Adam over one flat parameter buffer and its flat gradient buffer.

    The blocks are split into one contiguous share per worker; the caller
    works share 0 and a thread pool the others, since numpy ufuncs release
    the GIL on blocks this large. With one share no pool exists. close()
    shuts the pool down.
    """

    def __init__(self, params: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        self.params, self.grads = params, grads
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.cfg, self.t = cfg, 0
        n_blocks = -(-params.size // ADAM_BLOCK)
        n_workers = max(1, min(_usable_cpus(), n_blocks))
        cuts = [k * n_blocks // n_workers * ADAM_BLOCK for k in range(n_workers)]
        self.shares = list(zip(cuts, cuts[1:] + [params.size]))
        block = min(ADAM_BLOCK, params.size)
        self.scratch = [(np.empty(block), np.empty(block)) for _ in self.shares]
        self.pool = ThreadPoolExecutor(n_workers - 1) if n_workers > 1 else None

    def step(self) -> None:
        self.t += 1
        cfg = self.cfg
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        coeffs = (cfg.learning_rate, b1, b2, 1.0 - b1 ** self.t, 1.0 - b2 ** self.t,
                  cfg.adam_eps)
        futures = [self.pool.submit(self._share, k, coeffs)
                   for k in range(1, len(self.shares))]
        self._share(0, coeffs)
        for future in futures:
            future.result()

    def _share(self, k: int, coeffs: tuple) -> None:
        s1, s2 = self.scratch[k]
        lo, hi = self.shares[k]
        for start in range(lo, hi, ADAM_BLOCK):
            blk = slice(start, min(start + ADAM_BLOCK, hi))
            n = blk.stop - start
            _adam_block(self.params[blk], self.grads[blk], self.m[blk], self.v[blk],
                        s1[:n], s2[:n], *coeffs)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def train(net: DenseNet, x, targets, loss: str, cfg: TrainConfig):
    """Mini-batch training, deterministic per cfg.seed.

    Returns (trained copy of net, per-epoch loss history). History entry e
    is the sample-weighted mean of epoch e's minibatch losses, each taken
    before its batch's update, so with zero learning rate every entry is
    the initial full-dataset loss and the weights stay unchanged.

    The parameters live in one flat float64 buffer (each layer's w and b
    are views into it, also in the returned net), and the gradients in a
    second one. Adam updates it in place block by block, split over the
    usable CPUs; every weight comes out bit-identical to the out-of-place
    update m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    w -= lr*(m/corr1) / (sqrt(v/corr2) + eps).
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if x.shape[1] != net.input_dim:
        raise ValueError(f"data dim {x.shape[1]} != net input dim {net.input_dim}")
    if loss == "mse":
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    else:
        targets = np.atleast_1d(np.asarray(targets)).astype(int)

    size = sum(l.w.size + l.b.size for l in net.layers)
    params, grads = np.empty(size), np.empty(size)
    layers = []
    for layer, (w, b) in zip(net.layers, _flat_views(params, net.layers)):
        w[...], b[...] = layer.w, layer.b
        layers.append(Layer(w, b, layer.activation))
    net = DenseNet(layers)
    grad_views = _flat_views(grads, net.layers)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    adam = _Adam(params, grads, cfg) if cfg.optimizer == "adam" else None

    history = []
    try:
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            order = rng.permutation(n)
            for bstart in range(0, n, cfg.batch_size):
                idx = order[bstart:bstart + cfg.batch_size]
                value = _backward(net, x[idx], targets[idx], loss, grad_views)
                if not np.isfinite(value):
                    raise TrainingDivergedError(epoch, bstart // cfg.batch_size)
                epoch_loss += value * idx.size
                if adam is not None:
                    adam.step()
                else:
                    np.multiply(grads, cfg.learning_rate, out=grads)
                    np.subtract(params, grads, out=params)
            history.append(epoch_loss / n)
    finally:
        if adam is not None:
            adam.close()
    return net, history


def gradient_check(net: DenseNet, loss: str, x, target, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    grads = [(np.empty_like(l.w), np.empty_like(l.b)) for l in net.layers]
    _backward(net, x, target, loss, grads)
    probe = net.copy()

    def loss_at() -> float:
        pred = forward(probe, x)
        if loss == "mse":
            return loss_mse(pred, target)
        return loss_cross_entropy(pred, target)

    worst = 0.0
    for layer, (grad_w, grad_b) in zip(probe.layers, grads):
        for arr, grad in ((layer.w, grad_w), (layer.b, grad_b)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_at()
                flat[i] = orig - eps
                lm = loss_at()
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = gflat[i]
                rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
                worst = max(worst, rel)
    return worst


def save_artifact(path: str, meta: dict, nets: dict[str, DenseNet] | None = None,
                  arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write one model file: `arrays` plus every net's weights, under a JSON
    `meta` string that also gets each net's dims and activations.

    Net `name` stores layer k as `name.w<k>` and `name.b<k>`, float64.
    The file is a .npz archive, written to `path + ".tmp"` and renamed.
    """
    entries = dict(arrays or {})
    if nets:
        meta = dict(meta, nets={
            name: {"dims": [net.input_dim] + [l.w.shape[0] for l in net.layers],
                   "activations": [l.activation for l in net.layers]}
            for name, net in nets.items()})
        for name, net in nets.items():
            for k, layer in enumerate(net.layers):
                entries[f"{name}.w{k}"] = layer.w
                entries[f"{name}.b{k}"] = layer.b
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:  # a file object, so savez adds no ".npz"
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **entries)
    os.replace(tmp, path)


def load_artifact(path: str, nets: tuple[str, ...] = (), arrays: tuple[str, ...] = (),
                  fields: tuple[str, ...] = ()):
    """Read a file save_artifact wrote: (meta, {name: DenseNet}, {key: array}).

    Only the named nets and arrays are read, and `fields` must be in meta.
    A file that is no .npz archive, lacks an entry, holds an object array
    or weights whose shapes disagree with meta raises ValueError naming
    the path; a missing file raises FileNotFoundError.
    """
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not a .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                meta = _entry(npz, "meta")
                if meta.dtype.kind != "U" or meta.ndim != 0:
                    raise ValueError("'meta' is not a JSON string")
                meta = json.loads(meta.item())
                if not isinstance(meta, dict):
                    raise ValueError("'meta' is not a JSON object")
                missing = [f for f in fields if f not in meta]
                if missing:
                    raise ValueError(f"'meta' lacks {missing}")
                return (meta, {name: _read_net(npz, name, meta) for name in nets},
                        {key: _entry(npz, key) for key in arrays})
    except FileNotFoundError:
        raise
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"bad model file {path}: {exc}") from None


def _entry(npz, key: str) -> np.ndarray:
    if key not in npz.files:
        raise ValueError(f"no {key!r} entry")
    return npz[key]  # an object array raises: pickles are never loaded


def _read_net(npz, name: str, meta: dict) -> DenseNet:
    try:
        spec = meta["nets"][name]
        dims, activations = list(spec["dims"]), list(spec["activations"])
    except (KeyError, TypeError):
        raise ValueError(f"'meta' describes no net {name!r}") from None
    if len(dims) != len(activations) + 1:
        raise ValueError(f"net {name!r}: {len(dims)} dims for {len(activations)} layers")
    layers = []
    for k, activation in enumerate(activations):
        w, b = _entry(npz, f"{name}.w{k}"), _entry(npz, f"{name}.b{k}")
        if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
            raise ValueError(f"net {name!r} layer {k}: weights {w.shape} and bias {b.shape} "
                             f"disagree with dims {dims[k]} -> {dims[k + 1]} in 'meta'")
        if w.dtype != np.float64 or b.dtype != np.float64:
            raise ValueError(f"net {name!r} layer {k}: weights are not float64")
        layers.append(Layer(w, b, activation))
    return DenseNet(layers)
