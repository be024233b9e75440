"""Minimal dense feedforward network substrate with manual backprop.

Shared by the payload autoencoder, the pair-composition autoencoder and
the flow classifier. Everything runs in float64 so analytic gradients can
be checked against central finite differences. save_artifact and
load_artifact are the one writer and reader of every model file and of
the flow store, atomic_open the one way any artifact is written, and
file_errors gives every reader its error messages.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import logging
import os
import shlex
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity", "softmax")
LOSSES = ("mse", "cross_entropy")

PROB_FLOOR = 1e-12  # clamp applied to probabilities before log

logger = logging.getLogger(__name__)


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

    def copy(self) -> "DenseNet":
        # order="K" keeps a layer stored transposed so (see stored_transposed)
        return DenseNet([Layer(l.w.copy(order="K"), l.b.copy(), l.activation)
                         for l in self.layers])


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def init_dense_net(dims: list[int], activations: list[str], seed: int = 0) -> DenseNet:
    """Build a net with uniform init in [-s, s], s = 1 / sqrt(fan_in), and
    zero biases; the layers draw their rows (_init_rows) in order from one
    PCG64 stream seeded with seed."""
    if len(dims) < 2 or len(activations) != len(dims) - 1:
        raise ValueError("need len(dims) >= 2 and one activation per layer")
    rng = np.random.Generator(np.random.PCG64(seed))
    return DenseNet([Layer(_init_rows(rng, dims[k], dims[k + 1]), np.zeros(dims[k + 1]),
                           activations[k]) for k in range(len(dims) - 1)])


def _init_rows(rng: np.random.Generator, fan_in: int, rows: int) -> np.ndarray:
    """The next `rows` rows of a layer's initial weights, drawn from rng:
    one uniform double per weight, row after row, so rows drawn in several
    calls are those of one call for them all, bit for bit."""
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=(rows, fan_in))


# initial_first_layer draws this many rows at a time: 16 rows of a
# 1500-wide layer are 192 KB, little beside the layer they rebuild.
INIT_BLOCK = 16


def initial_first_layer(seed: int, fan_in: int, fan_out: int):
    """Yield (lo, rows) in order: rows lo:lo + len(rows) of the initial
    weights of layer 0, fan_in -> fan_out, of a net init_dense_net builds
    with this seed, INIT_BLOCK rows at a time; no full copy is held."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for lo in range(0, fan_out, INIT_BLOCK):
        yield lo, _init_rows(rng, fan_in, min(INIT_BLOCK, fan_out - lo))


def apply_activation(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of z, written into out (a new array when out is None;
    out may be z itself)."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "sigmoid":
        # e = exp(-|z|) never overflows: 1/(1+e) where z >= 0, e/(1+e) below
        nonneg = z >= 0
        e = np.copysign(z, -1.0)
        np.exp(e, out=e)
        out = np.add(e, 1.0, out=out)  # the denominator; z may be out
        np.copyto(e, 1.0, where=nonneg)  # e is now the numerator
        return np.divide(e, out, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    if name == "identity":
        if out is None or out is z:
            return z
        np.copyto(out, z)
        return out
    if name == "softmax":
        e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
        np.exp(e, out=e)
        return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)
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


# Input columns per chunk of chunked_affine.
CHUNK = 256


def live_width(x: np.ndarray) -> int:
    """The columns of x up to the end of the CHUNK-column chunk holding its
    last nonzero column, at most x's width; 0 when x is all zero."""
    cols = np.flatnonzero(x.any(axis=0))
    return 0 if cols.size == 0 else min(x.shape[1], (int(cols[-1]) // CHUNK + 1) * CHUNK)


def chunked_affine(x: np.ndarray, wT: np.ndarray, b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """x @ wT + b as the sum of x[:, c] @ wT[c] over x's CHUNK-column
    chunks c in order, plus b; written into out (a new array when out is
    None).

    x may be narrower than wT has rows: its missing columns count as
    zeros, and the result is that of x padded with zeros to full width.
    Only x's own chunks run; one that x ends inside is zero-padded to its
    end, so no chunk is ever cut. Each chunk's product is the same BLAS
    call whether or not later chunks run, and an all-zero chunk's terms
    are exact zeros, so a caller that cuts a zero-padded x at its
    live_width pays only for the live chunks and gets the sum over every
    chunk bit for bit, on any BLAS. wT should be C-contiguous, so that a
    chunk of it is one contiguous block.
    """
    width = x.shape[1]
    if not width:
        if out is None:
            out = np.empty((x.shape[0], wT.shape[1]))
        out[...] = 0.0
    else:
        end = min(wT.shape[0], -(-width // CHUNK) * CHUNK)
        if end > width:  # x ends inside its last chunk
            x = np.pad(x, ((0, 0), (0, end - width)))
        out = np.matmul(x[:, :CHUNK], wT[:CHUNK], out=out)
        for lo in range(CHUNK, width, CHUNK):
            out += x[:, lo:lo + CHUNK] @ wT[lo:lo + CHUNK]
    out += b
    return out


def stored_transposed(layer: Layer) -> bool:
    """Whether layer.w is the transpose of a C-contiguous array. Such a
    layer runs through chunked_affine, and as layer 0 it takes an input
    narrower than its width, whose missing columns count as zeros."""
    return not layer.w.flags.c_contiguous


def _check_width(k: int, layer: Layer, width: int) -> None:
    if width > layer.w.shape[1] or (width < layer.w.shape[1]
                                    and (k or not stored_transposed(layer))):
        raise ValueError(f"layer {k} expects input dim {layer.w.shape[1]}, got {width}")


def _product(layer: Layer, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ layer.w.T + layer.b, written into out (a new array when out is
    None). A layer stored transposed runs through chunked_affine, so its
    input may be narrow, and its chunks that x does not reach cost
    nothing."""
    if stored_transposed(layer):
        return chunked_affine(x, layer.w.T, layer.b, out=out)
    out = np.matmul(x, layer.w.T, out=out)
    out += layer.b
    return out


# affine_into applies an activation to at most this many elements at once.
ACTIVATION_BLOCK = 1 << 16


def affine_into(layer: Layer, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One layer on x: its product, then its activation written over the
    product, all in out (a new array when out is None). No input check.

    The product is one full-batch call. An output of more than
    ACTIVATION_BLOCK elements gets its activation one block of rows at a
    time, which bounds the sigmoid's temporaries; every activation is
    elementwise or row-wise, so the bits are those of one call, which an
    output that fits in a block still makes.
    """
    z = _product(layer, x, out)
    if z.size <= ACTIVATION_BLOCK:
        return apply_activation(layer.activation, z, out=z)
    rows = max(1, ACTIVATION_BLOCK // z.shape[1])
    for lo in range(0, len(z), rows):
        block = z[lo:lo + rows]
        apply_activation(layer.activation, block, out=block)
    return z


def _forward_trace(net: DenseNet, x: np.ndarray):
    """Forward pass keeping pre-activations and activations per layer, for
    _backward."""
    zs, acts = [], [x]
    for k, layer in enumerate(net.layers):
        a = acts[-1]
        _check_width(k, layer, a.shape[-1])
        zs.append(_product(layer, a))
        acts.append(apply_activation(layer.activation, zs[-1]))
    return zs, acts


def forward(net: DenseNet, x) -> np.ndarray:
    """Run the net on a single vector or a (n, input_dim) batch.

    Each layer writes its activation over its own product, and no layer's
    output outlives the next layer's product, so a batch holds at most two
    layer outputs at once; x is never written. The products are full-batch:
    BLAS may round a row differently in a product of another row count.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    for k, layer in enumerate(net.layers):
        _check_width(k, layer, a.shape[-1])
        a = affine_into(layer, a)
    return a[0] if single else a


def loss_mse(pred, target) -> float:
    """Mean over samples of the squared L2 distance."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.shape[0] == 0:
        raise ValueError("empty batch")
    d = np.subtract(pred, target)
    np.square(d, out=d)
    return float(d.sum(axis=1).mean())


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
    """The loss and its gradient with respect to pred. An mse target
    narrower than pred counts as padded with zero columns: pred - 0 is
    pred bit for bit, so d = pred - target is formed once, at full width,
    and gives the gradient 2.0 * d / n and, squared in place, the value,
    both as loss_mse and the out-of-place expression round them."""
    n = pred.shape[0]
    if loss == "mse":
        target = np.atleast_2d(np.asarray(target, dtype=np.float64))
        width = target.shape[1]
        if target.shape[0] != n or width > pred.shape[1]:
            raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
        d = np.empty_like(pred)
        np.subtract(pred[:, :width], target, out=d[:, :width])
        d[:, width:] = pred[:, width:]
        grad = np.multiply(d, 2.0)
        np.divide(grad, n, out=grad)
        np.square(d, out=d)
        return float(d.sum(axis=1).mean()), grad
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
    respect to the input is never formed: nothing reads it. A dw that is
    not C-contiguous is the transpose of a C-contiguous array, whose rows
    are filled in place.
    """
    zs, acts = _forward_trace(net, x)
    value, da = _loss_value_and_grad(loss, acts[-1], target)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        dz = _activation_grad(layer.activation, zs[k], acts[k + 1], da)
        dw, db = grads[k]
        a = acts[k]
        if dw.flags.c_contiguous:
            np.matmul(dz.T, a, out=dw)
        else:
            np.matmul(a.T, dz, out=dw.T)
        np.sum(dz, axis=0, out=db)
        if k:
            da = dz @ layer.w
    return value


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Adam walks the flat buffers in blocks of this many float64 elements
# (512 KiB per buffer), so its passes over a block stay in cache.
ADAM_BLOCK = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _flat_views(buf: np.ndarray, layers: list[Layer]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views into buf, one pair per layer, laid out w0 b0 w1 b1 ...;
    a w stored transposed (stored_transposed) is viewed as the transpose of
    a row-major block, so it keeps that layout."""
    views, off = [], 0
    for layer in layers:
        w = buf[off:off + layer.w.size]
        w = (w.reshape(layer.w.shape[::-1]).T if stored_transposed(layer)
             else w.reshape(layer.w.shape))
        off += layer.w.size
        views.append((w, buf[off:off + layer.b.size]))
        off += layer.b.size
    return views


def _adam_block(p, g, m, v, s1, s2, lr, b1, b2, corr1, corr2, eps) -> None:
    """One Adam update of a block in place, with the operations of
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
    p -= lr*(m/corr1) / (sqrt(v/corr2) + eps) in that order, so every
    element rounds as the out-of-place expressions do. From step 356 on,
    corr1 = 1 - b1**t rounds to 1.0, and m / 1.0 is m exactly (IEEE 754),
    so that division is skipped. s1, s2: scratch."""
    np.multiply(m, b1, out=m)
    np.multiply(g, 1 - b1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, g, out=s1)
    np.multiply(s1, 1 - b2, out=s1)
    np.add(v, s1, out=v)
    if corr1 == 1.0:
        np.multiply(m, lr, out=s2)
    else:
        np.divide(m, corr1, out=s2)
        np.multiply(s2, lr, out=s2)
    np.divide(v, corr2, out=s1)
    np.sqrt(s1, out=s1)
    np.add(s1, eps, out=s1)
    np.divide(s2, s1, out=s2)
    np.subtract(p, s2, out=p)


# _adam_block as a C loop: the same operations in the same order, each
# rounded once, so the bits are _adam_block's. -ffp-contract=off keeps the
# compiler from fusing a*b + c into one FMA (GCC does so by default in GNU
# C mode), and without -ffast-math nothing is reordered; -fno-math-errno
# only lets sqrt vectorize, and sqrt stays correctly rounded. Once corr1
# is 1.0 the second loop runs, which skips the division by it as
# _adam_block does.
_ADAM_C = """
#include <math.h>
#include <stddef.h>
void ride_adam(double *restrict p, const double *restrict g, double *restrict m,
               double *restrict v, size_t n, double lr, double b1, double c1,
               double b2, double c2, double corr1, double corr2, double eps)
{
    if (corr1 != 1.0) {
        for (size_t i = 0; i < n; i++) {
            m[i] = m[i] * b1 + g[i] * c1;
            v[i] = v[i] * b2 + (g[i] * g[i]) * c2;
            p[i] = p[i] - ((m[i] / corr1) * lr) / (sqrt(v[i] / corr2) + eps);
        }
        return;
    }
    for (size_t i = 0; i < n; i++) {
        m[i] = m[i] * b1 + g[i] * c1;
        v[i] = v[i] * b2 + (g[i] * g[i]) * c2;
        p[i] = p[i] - (m[i] * lr) / (sqrt(v[i] / corr2) + eps);
    }
}
"""
_ADAM_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120


def _compiler() -> list[str]:
    """The C compiler command: sysconfig's CC, else cc."""
    import sysconfig
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _build_adam(cc: list[str], directory: str) -> str:
    """Compile _ADAM_C to a library in directory; its path. OSError names
    what failed."""
    import subprocess  # not at module level: a process that only scores never compiles
    path = os.path.join(directory, "ride_adam.so")
    try:
        subprocess.run([*cc, *_ADAM_FLAGS, "-x", "c", "-", "-o", path], input=_ADAM_C.encode(),
                       capture_output=True, check=True, timeout=_COMPILE_TIMEOUT_S)
    except FileNotFoundError:
        raise OSError(f"no compiler {cc[0]!r}") from None
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(f"{cc[0]} exited {exc.returncode}: {lines[-1] if lines else ''}") from None
    except subprocess.TimeoutExpired:
        raise OSError(f"{cc[0]} took over {_COMPILE_TIMEOUT_S} s") from None
    return path


def _open_adam(path: str):
    """The kernel in the library at path, once it steps a probe to
    _adam_block's bits; OSError otherwise."""
    try:
        kernel = ctypes.CDLL(path).ride_adam
    except AttributeError:
        raise OSError(f"{path} has no ride_adam") from None
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 8
    kernel.restype = None
    # random gradients of mixed scale, a few zero, subnormal and huge, past a SIMD width
    rng = np.random.Generator(np.random.PCG64(0))
    g = rng.normal(size=1027) * 10.0 ** rng.integers(-12, 4, size=1027)
    g[:6] = 0.0, 5e-324, -2.5e-310, 1e150, -1e300, 1e300
    ours, theirs = [[np.linspace(-1, 1, g.size), g, np.zeros_like(g), np.zeros_like(g)]
                    for _ in range(2)]
    with np.errstate(all="ignore"):
        for t in (1, 2, 3, 400):  # corr1 is 1.0 at step 400
            coeffs = (1e-3, ADAM_BETA1, ADAM_BETA2, 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t,
                      ADAM_EPS)
            _adam_block(*theirs, np.empty_like(g), np.empty_like(g), *coeffs)
            _call_adam(kernel, [a.ctypes.data for a in ours], g.size, coeffs)
    if not all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(ours, theirs)):
        raise OSError("the compiled step disagrees with numpy's")
    return kernel


def _call_adam(kernel, pointers: list[int], n: int, coeffs: tuple) -> None:
    """kernel on n elements from each of the addresses of p, g, m and v,
    with _adam_block's coefficients."""
    lr, b1, b2, corr1, corr2, eps = coeffs
    kernel(*pointers, n, lr, b1, 1 - b1, b2, 1 - b2, corr1, corr2, eps)


@functools.cache
def _adam_kernel():
    """The compiled Adam step of this process, or None; the first call logs
    which Adam runs.

    The kernel is built with sysconfig's CC (or cc) into a temp directory
    of this process's own, loaded, and the directory removed: the loaded
    library stays mapped. No compiler, a compile error, no writable temp
    directory, a library that does not load or a kernel that does not match
    _adam_block on a probe leaves None: numpy's _adam_block runs, with the
    same bits, only slower.
    """
    import tempfile
    cc = _compiler()
    try:
        with tempfile.TemporaryDirectory(prefix="ride-adam-", ignore_cleanup_errors=True) as tmp:
            kernel = _open_adam(_build_adam(cc, tmp))
    except OSError as exc:
        logger.info("Adam: numpy (%s)", exc)
        return None
    logger.info("Adam: compiled kernel (built by %s)", shlex.join(cc))
    return kernel


class _Adam:
    """Adam over one flat parameter buffer and its flat gradient buffer.

    The blocks are split into one contiguous share per worker; the caller
    works share 0 and a thread pool the others, since the compiled kernel
    (one call per share) and numpy's ufuncs both release the GIL. With one
    share no pool exists. Without the kernel, _adam_block walks each share
    block by block through two scratch buffers. close() shuts the pool
    down.
    """

    def __init__(self, params: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        self.params, self.grads = params, grads
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.cfg, self.t = cfg, 0
        n_blocks = -(-params.size // ADAM_BLOCK)
        n_workers = max(1, min(_usable_cpus(), n_blocks))
        cuts = [k * n_blocks // n_workers * ADAM_BLOCK for k in range(n_workers)]
        self.shares = list(zip(cuts, cuts[1:] + [params.size]))
        self.kernel = _adam_kernel()
        if self.kernel is not None:
            buffers = (params, grads, self.m, self.v)
            if not all(a.dtype == np.float64 and a.flags.c_contiguous and a.size == params.size
                       for a in buffers):
                raise ValueError("Adam needs contiguous float64 buffers of one size")
            self.pointers = [[a.ctypes.data + lo * a.itemsize for a in buffers]
                             for lo, _ in self.shares]
        else:
            block = min(ADAM_BLOCK, params.size)
            self.scratch = [(np.empty(block), np.empty(block)) for _ in self.shares]
        self.pool = ThreadPoolExecutor(n_workers - 1) if n_workers > 1 else None

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        coeffs = (self.cfg.learning_rate, b1, b2, 1.0 - b1 ** self.t, 1.0 - b2 ** self.t,
                  ADAM_EPS)
        futures = [self.pool.submit(self._share, k, coeffs)
                   for k in range(1, len(self.shares))]
        self._share(0, coeffs)
        for future in futures:
            future.result()

    def _share(self, k: int, coeffs: tuple) -> None:
        lo, hi = self.shares[k]
        if self.kernel is not None:
            _call_adam(self.kernel, self.pointers[k], hi - lo, coeffs)
            return
        s1, s2 = self.scratch[k]
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

    Each layer keeps the memory layout it has in net: one stored
    transposed (stored_transposed) stays so, in the buffer and in the
    returned net. x must be as wide as the net's input. An mse target may
    be narrower than its output: the missing columns count as zeros, and
    give the weights and history of the zero-padded target, bit for bit.

    The caller's net is copied into the buffer and not referenced after,
    so a net built in the call's argument list is freed at that point.
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
        if targets.shape[0] != n or targets.shape[1] > net.output_dim:
            raise ValueError(f"targets {targets.shape} do not fit {n} rows of "
                             f"net output dim {net.output_dim}")
    else:
        targets = np.atleast_1d(np.asarray(targets)).astype(int)

    size = sum(l.w.size + l.b.size for l in net.layers)
    params, grads = np.empty(size), np.empty(size)
    views = _flat_views(params, net.layers)
    for k, (w, b) in enumerate(views):
        w[...], b[...] = net.layers[k].w, net.layers[k].b
    net = DenseNet([Layer(w, b, l.activation) for l, (w, b) in zip(net.layers, views)])
    grad_views = _flat_views(grads, net.layers)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    adam = _Adam(params, grads, cfg)

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
                adam.step()
            history.append(epoch_loss / n)
    finally:
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
    The file is a .npz archive, written through atomic_open.
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
    with atomic_open(path, "wb") as fh:  # a file object, so savez adds no ".npz"
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **entries)


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Yield path + ".tmp" opened for writing (open's mode and kwargs), and
    rename it over path when the block ends. A block that raises removes
    the temp file, so any old file at path stays as it was and no shorter
    one takes its place. The parent directory is made when missing."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_artifact(path: str, nets: tuple[str, ...] = (), arrays: tuple[str, ...] = (),
                  fields: tuple[str, ...] = (), kind: str = "model"):
    """Read a file save_artifact wrote: (meta, {name: DenseNet}, {key: array}).

    Only the named nets and arrays are read, and `fields` must be in meta.
    A file that is no .npz archive, lacks an entry, holds an object array
    or weights whose shapes disagree with meta raises ValueError("bad
    {kind} file {path}: ..."); a missing file raises FileNotFoundError.
    """
    with open(path, "rb") as fh, file_errors(path, kind):
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


@contextlib.contextmanager
def file_errors(path: str, kind: str):
    """Turn what reading an open file raises when its content does not
    parse or lacks a key or an entry into ValueError("bad {kind} file
    {path}: ..."). Opening stays outside, so a missing file still raises
    FileNotFoundError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"bad {kind} file {path}: no key {exc}") from None
    except (ValueError, TypeError, IndexError, AttributeError, OSError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"bad {kind} file {path}: {exc}") from None


def fits_offsets(offsets: np.ndarray, n: int, rows: int, least: int = 1) -> bool:
    """Whether the n runs offsets[j]:offsets[j + 1] cut `rows` rows in order, each >= `least`."""
    return (offsets.shape == (n + 1,) and offsets.dtype.kind == "i" and offsets[0] == 0
            and offsets[-1] == rows and not np.any(np.diff(offsets) < least))


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
