"""Trainable soft-outcome predictors and the discretization operator.

Two architectures cover the experiments: a logistic scorer for scalar
observations (the convergence study), and a small convolutional network
for 28x28 RGB images (the colored-digit study: 20 then 50 filters of size
5x5, each followed by ReLU and 2x2 max pooling, a 500-unit fully
connected layer, and a single sigmoid logit).

Everything is plain numpy with hand-written backpropagation: parameters
live in one flat vector per model, training is mini-batch Adam with
moment constants (0.9, 0.9, 1e-8), and all randomness (initialization,
shuffling) derives from the config seed, so identical config and data
reproduce identical parameters bit for bit.

Convolutions are im2col matrix products (Chellapilla, Puri & Simard 2006):
the forward product and the kernel gradient of a layer are one GEMM each.
Each convolution block pools before its bias and ReLU
(``_conv_pool_relu``), and training and inference share this one forward
pass. Training scores each convnet mini-batch in parts, and inference in
batches, on the usable cores with numpy's OpenBLAS pinned to one thread
(``train``, ``predict_soft``, ``_scoring_threads``).

Compute dtypes are fixed per release: float64 for logistic,
float32 for the convolutional network. Gradient checks can request
float64 through ``loss_and_grad``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ConfigurationError, DomainError, TrainingError
from .scm import Dataset

MODEL_KINDS = ("logistic", "convnet")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8

PROB_CLIP = 1e-7          # probability clamp applied before logs in the BCE
CONV_KERNEL = 5
CONV1_FILTERS = 20
CONV2_FILTERS = 50
CONV_FC_WIDTH = 500
PIXEL_SCALE = 1.0 / 255.0  # per-channel scaling to [0, 1]
PIXEL_CENTER = 0.5         # subtracted from every channel after scaling
PREDICT_BATCH_BYTES = 512 * 1024  # cast input per batch in predict_soft
SUB_BATCH = 16             # convnet training: images per scored part
ADAM_FLOATS_MAX = 16       # Adam on Python floats up to this length
_M_ARENA_MAX = -8          # glibc's mallopt parameter number


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Training minimizes the unweighted binary
    cross-entropy."""

    model_kind: str
    learning_rate: float = 0.001
    epochs: int = 6
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be > 0, got {self.learning_rate} "
                "(finite values only)")
        if not (isinstance(self.epochs, (int, np.integer)) and self.epochs >= 1):
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not (isinstance(self.batch_size, (int, np.integer))
                and self.batch_size >= 1):
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True, eq=False)
class Predictor:
    """A trained scorer: architecture descriptor, flat parameter vector and
    the per-epoch mean loss trace."""

    architecture: dict
    params: np.ndarray
    loss_trace: tuple = ()

    def __post_init__(self):
        self.params.setflags(write=False)


# --------------------------------------------------------------------------
# architecture descriptors and parameter packing

def _flat_dim(arch):
    """Length of the flattened output of the two conv-pool blocks."""
    h, w = arch["height"], arch["width"]
    for _ in range(2):
        h, w = (h - CONV_KERNEL + 1) // 2, (w - CONV_KERNEL + 1) // 2
    return h * w * CONV2_FILTERS


def param_layout(arch: dict) -> list:
    """(name, shape, fan_in) triples, in initialization order."""
    kind = arch["kind"]
    if kind == "logistic":
        d = arch["in_dim"]
        return [("w", (d,), d), ("b", (), d)]
    if kind == "convnet":
        c = arch["channels"]
        k = CONV_KERNEL
        flat = _flat_dim(arch)
        return [
            ("k1", (k, k, c, CONV1_FILTERS), k * k * c),
            ("c1", (CONV1_FILTERS,), k * k * c),
            ("k2", (k, k, CONV1_FILTERS, CONV2_FILTERS), k * k * CONV1_FILTERS),
            ("c2", (CONV2_FILTERS,), k * k * CONV1_FILTERS),
            ("w3", (flat, CONV_FC_WIDTH), flat),
            ("b3", (CONV_FC_WIDTH,), flat),
            ("w4", (CONV_FC_WIDTH,), CONV_FC_WIDTH),
            ("b4", (), CONV_FC_WIDTH),
        ]
    raise ConfigurationError(f"unknown architecture kind {kind!r}")


def unpack_params(params: np.ndarray, arch: dict) -> dict:
    """Views into the flat vector, keyed by layer name."""
    out = {}
    offset = 0
    for name, shape, _ in param_layout(arch):
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out[name] = params[offset:offset + size].reshape(shape)
        offset += size
    if offset != len(params):
        raise ConfigurationError(
            f"parameter vector has length {len(params)}, architecture "
            f"expects {offset}")
    return out


def init_params(arch: dict, seed) -> np.ndarray:
    """Seeded uniform fan-in initialization: U(-1/sqrt(fan_in), +1/sqrt(fan_in))
    drawn layer by layer in layout order."""
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seq))
    chunks = []
    for _, shape, fan_in in param_layout(arch):
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        lim = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-lim, lim, size=size))
    return np.concatenate(chunks)


# --------------------------------------------------------------------------
# im2col convolution: one GEMM per layer over the 5x5 input patches

def _im2col(x):
    """(B, H, W, C) -> (B*OH*OW, k*k*C) patch matrix, columns in (di, dj, c)
    order, so a (k, k, C, F) kernel is a plain (k*k*C, F) matrix."""
    k = CONV_KERNEL
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * x.shape[3])


def _conv_product(x, kernel):
    """Convolution without the bias, (B, OH, OW, F), and the patch matrix
    the kernel gradient needs."""
    k = CONV_KERNEL
    cols = _im2col(x)
    out = cols @ kernel.reshape(-1, kernel.shape[-1])
    b, h, w, _ = x.shape
    return out.reshape(b, h - k + 1, w - k + 1, -1), cols


def _conv_input_grad(d_out, kernel, in_shape):
    """Gradient of the convolution with respect to its input: the product of
    the output gradient with each kernel tap, added back at the tap's
    offset."""
    k = CONV_KERNEL
    b, oh, ow, f = d_out.shape
    d_flat = d_out.reshape(-1, f)
    dx = np.zeros(in_shape, dtype=d_out.dtype)
    for di in range(k):
        for dj in range(k):
            dx[:, di:di + oh, dj:dj + ow] += (
                d_flat @ kernel[di, dj].T).reshape(b, oh, ow, -1)
    return dx


def _pool_forward(x, want_masks=True):
    x00 = x[:, 0::2, 0::2]
    x01 = x[:, 0::2, 1::2]
    x10 = x[:, 1::2, 0::2]
    x11 = x[:, 1::2, 1::2]
    m1 = np.maximum(x00, x01)
    m2 = np.maximum(x10, x11)
    out = np.maximum(m1, m2)
    if not want_masks:
        return out, None
    # first-wins routing in row-major window order (00, 01, 10, 11)
    top = m1 >= m2
    a = x00 >= x01
    b = x10 >= x11
    masks = (top & a, top & ~a, ~top & b, ~top & ~b)
    return out, masks


def _pool_backward(d_out, masks, in_shape):
    dx = np.zeros(in_shape, dtype=d_out.dtype)
    g00, g01, g10, g11 = masks
    dx[:, 0::2, 0::2] = d_out * g00
    dx[:, 0::2, 1::2] = d_out * g01
    dx[:, 1::2, 0::2] = d_out * g10
    dx[:, 1::2, 1::2] = d_out * g11
    return dx


def _conv_pool_relu(x, kernel, bias, want_cache):
    """One convolution block, pooled first: 2x2 max pooling of the raw
    convolution product, then the bias and ReLU in place on the quarter-size
    result. That equals bias and ReLU before pooling, because rounding is
    monotone, so max(a) + c == max(a + c), and ReLU commutes with max.
    Returns the block output, and the patch matrix and pooling masks when
    ``want_cache`` (None otherwise)."""
    a, cols = _conv_product(x, kernel)
    p, masks = _pool_forward(a, want_masks=want_cache)
    np.maximum(np.add(p, bias, out=p), 0, out=p)
    return p, cols if want_cache else None, masks


def _conv_pool_relu_backward(d_p, p, masks, cols, d_kernel, d_bias):
    """Fill one block's kernel and bias gradients from the gradient of its
    output ``p``; return the gradient of the raw convolution product."""
    d_pre = d_p * (p > 0)
    d_bias[...] = d_pre.sum(axis=(0, 1, 2))
    b, hp, wp, f = d_pre.shape
    d_a = _pool_backward(d_pre, masks, (b, 2 * hp, 2 * wp, f))
    d_kernel[...] = (cols.T @ d_a.reshape(-1, f)).reshape(d_kernel.shape)
    return d_a


# --------------------------------------------------------------------------
# forward / backward per architecture

def _compute_dtype(arch):
    return np.float32 if arch["kind"] == "convnet" else np.float64


def _check_inputs(arch: dict, xs: np.ndarray) -> None:
    """Raise DomainError unless ``xs`` has the architecture's input shape."""
    if arch["kind"] == "logistic":
        features = xs.shape[1] if xs.ndim == 2 else 1 if xs.ndim == 1 else None
        if features != arch["in_dim"]:
            raise DomainError(
                f"logistic expects features of dimension {arch['in_dim']}, "
                f"got array of shape {xs.shape}")
        return
    expected = (arch["height"], arch["width"], arch["channels"])
    if xs.ndim != 4 or xs.shape[1:] != expected:
        raise DomainError(
            f"convnet expects images of shape (n, {expected[0]}, {expected[1]}, "
            f"{expected[2]}), got {xs.shape}")


def prepare_inputs(arch: dict, xs, dtype=None) -> np.ndarray:
    """Validate input shape against the architecture and cast; convolutional
    inputs are pixel bytes, rescaled to [0,1] and centered at 0.5."""
    if dtype is None:
        dtype = _compute_dtype(arch)
    xs = np.asarray(xs)
    _check_inputs(arch, xs)
    if arch["kind"] == "logistic":
        x = xs.astype(dtype, copy=False)
        return x[:, None] if x.ndim == 1 else x
    x = xs.astype(dtype)
    x *= dtype(PIXEL_SCALE)
    x -= dtype(PIXEL_CENTER)
    return x


def _forward(arch, p, x, want_cache, out=None):
    """Scores of the rows of ``x``, and the cache ``_backward`` needs when
    ``want_cache`` (None otherwise). The scores are written into ``out``
    when it is given: the last layer's product is computed there, and the
    bias and sigmoid are applied in place."""
    if arch["kind"] == "logistic":
        features, w, b = x, p["w"], p["b"]
        cache = (x,)
    else:
        p1, cols1, masks1 = _conv_pool_relu(x, p["k1"], p["c1"], want_cache)
        p2, cols2, masks2 = _conv_pool_relu(p1, p["k2"], p["c2"], want_cache)
        flat = p2.reshape(x.shape[0], -1)
        a3 = flat @ p["w3"] + p["b3"]
        features, w, b = np.maximum(a3, 0), p["w4"], p["b4"]
        cache = (cols1, masks1, p1, cols2, masks2, p2, flat, a3, features)
    prob = np.matmul(features, w, out=out)
    prob += b
    expit(prob, out=prob)
    return prob, (*cache, prob) if want_cache else None


def _backward(arch, p, cache, y, divisor, grads, dz=None):
    """Fill ``grads`` (dict of arrays shaped like the params) with the
    gradient of the BCE summed over ``y`` and divided by ``divisor``; uses
    dL/dlogit = (p - y) / divisor, computed into ``dz`` when it is given.
    With ``divisor == len(y)`` that is the gradient of the mean; a part of
    a batch passes the whole batch's length, so the parts' gradients add
    up to the batch's."""
    dz = np.subtract(cache[-1], y, out=dz)
    dz /= divisor
    if arch["kind"] == "logistic":
        x, _ = cache
        np.matmul(x.T, dz, out=grads["w"])
        np.add.reduce(dz, out=grads["b"])
        return
    cols1, masks1, p1, cols2, masks2, p2, flat, a3, h3, _ = cache
    grads["w4"][...] = h3.T @ dz
    grads["b4"][...] = dz.sum()
    dh3 = np.outer(dz, p["w4"]) * (a3 > 0)
    grads["w3"][...] = flat.T @ dh3
    grads["b3"][...] = dh3.sum(axis=0)
    dp2 = (dh3 @ p["w3"].T).reshape(p2.shape)
    da2 = _conv_pool_relu_backward(dp2, p2, masks2, cols2, grads["k2"],
                                   grads["c2"])
    dp1 = _conv_input_grad(da2, p["k2"], p1.shape)
    _conv_pool_relu_backward(dp1, p1, masks1, cols1, grads["k1"], grads["c1"])


def _bce_terms(prob, y, scratch=None):
    """Per-unit log-likelihood terms of the BCE, with the probabilities
    clamped to [1e-7, 1 - 1e-7] before the logs. They are computed in
    ``scratch``, three arrays shaped like ``prob`` (allocated when None),
    and returned in the first."""
    if scratch is None:
        scratch = [np.empty(np.shape(prob), np.result_type(prob, y, 1.0))
                   for _ in range(3)]
    terms, clipped, other = scratch
    np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP, out=clipped)
    np.log(clipped, out=terms)
    terms *= y                                      # y log(p)
    np.log1p(np.negative(clipped, out=clipped), out=clipped)
    np.multiply(np.subtract(1, y, out=other), clipped, out=other)
    terms += other                                  # + (1 - y) log(1 - p)
    return terms


def bce(prob, y) -> float:
    """Mean binary cross-entropy with the probabilities clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    return float(-_bce_terms(prob, y).mean())


def _batch_losses(prob, y, batch, scratch=None):
    """``bce`` of each run of ``batch`` consecutive units, the last run
    possibly shorter, as one array of the input dtype, with the terms
    computed in ``scratch`` (see ``_bce_terms``). Each row sum is the same
    pairwise sum that ``mean`` makes of a batch on its own, so every loss
    equals that batch's ``bce`` bit for bit."""
    terms = _bce_terms(prob, y, scratch)
    full = len(terms) - len(terms) % batch
    losses = -(terms[:full].reshape(-1, batch).sum(axis=1) / batch)
    if full < len(terms):
        losses = np.append(losses, -terms[full:].mean())
    return losses


def loss_and_grad(arch: dict, params: np.ndarray, xs, y, dtype=None):
    """BCE loss and its gradient as a flat vector.

    ``dtype`` overrides the architecture's compute dtype; gradient checks
    use float64.
    """
    if dtype is None:
        dtype = _compute_dtype(arch)
    x = prepare_inputs(arch, xs, dtype)
    y = np.asarray(y, dtype=dtype)
    params = np.asarray(params, dtype=dtype)
    p = unpack_params(params, arch)
    grad_flat = np.zeros_like(params)
    grads = unpack_params(grad_flat, arch)
    prob, cache = _forward(arch, p, x, want_cache=True)
    _backward(arch, p, cache, y, len(y), grads)
    return bce(prob, y), grad_flat


# --------------------------------------------------------------------------
# one BLAS thread, and independent parts on the usable cores

@functools.lru_cache(maxsize=None)
def _numpy_openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS bundled with
    numpy, or None when numpy links another BLAS. Only numpy's copy is
    looked for: scipy loads a second OpenBLAS without these symbols."""
    package = Path(np.__file__).parent
    candidates = [*package.parent.glob("numpy.libs/libscipy_openblas64_*"),
                  *package.glob(".dylibs/libscipy_openblas64_*")]
    for path in sorted(candidates):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread inside the block and restore the
    previous count after it. Yields whether it could.

    A count that is already 1 is left alone. OpenBLAS stops its threads
    before a fork, and setting any count restarts them; a restarted thread
    spins for a while, taking a core from the sweep. A pool worker forked
    under this pin (``harness._outcomes``) so never starts one.
    """
    blas = _numpy_openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    previous = get()
    if previous == 1:
        yield True
        return
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


def _usable_cores() -> int:
    """Cores this process may score on: one inside a pool worker process,
    whose sibling workers occupy the others."""
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _cap_malloc_arenas() -> None:
    """Have every thread allocate from glibc's main arena. Each scoring
    thread would otherwise get an arena of its own, which keeps the freed
    batch buffers, and later phases allocate on top of them. A no-op where
    the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


@contextlib.contextmanager
def _scoring_threads(arch: dict, parts: int):
    """Pin numpy's OpenBLAS to one thread inside the block, and yield a
    ``run(fn, items)`` that returns ``[fn(item) for item in items]``.

    For the convnet, ``run`` spreads up to ``parts`` items over one thread
    pool of min(parts, usable cores) threads, which lives as long as the
    block, and runs each item under the caller's numpy float error
    handling. Logistic items run in series: each is a few milliseconds of
    work, less than starting the threads costs. So does everything when
    numpy's BLAS cannot be pinned to one thread, whose own threads would
    then compete with the pool's for the cores.

    Why one BLAS thread: a training step is a chain of thin GEMMs, in each
    of which two BLAS threads meet at a barrier, so a BLAS-threaded step
    stalls whenever another process holds the second core, while parts
    meet only at their sum. An inference batch is mostly numpy copies and
    small GEMMs that BLAS threads barely speed up, while independent
    batches do scale. On one core an epoch takes about as long in parts
    as in whole batches, so the parts pay off only where more cores are
    free.
    """
    with _one_blas_thread() as pinned:
        threads = 1
        if pinned and arch["kind"] == "convnet":
            threads = min(parts, _usable_cores())
        if threads <= 1:
            yield lambda fn, items: [fn(item) for item in items]
            return
        _cap_malloc_arenas()
        errstate = np.geterr()  # numpy keeps one per thread

        def call(fn, item):
            with np.errstate(**errstate):
                return fn(item)

        with ThreadPoolExecutor(threads) as pool:
            yield lambda fn, items: list(
                pool.map(functools.partial(call, fn), items))


# --------------------------------------------------------------------------
# training

def _architecture_for(config: TrainConfig, x: np.ndarray) -> dict:
    kind = config.model_kind
    if kind == "convnet":
        if x.ndim != 4:
            raise DomainError(
                f"convnet training requires image observations (n, H, W, C), "
                f"got shape {x.shape}")
        return {"kind": kind, "height": int(x.shape[1]),
                "width": int(x.shape[2]), "channels": int(x.shape[3])}
    return {"kind": kind, "in_dim": 1 if x.ndim == 1 else int(x.shape[1])}


def _adam(params: np.ndarray, lr: float):
    """Adam on ``params`` in place: returns ``update(grad, step)``, which
    applies step ``step`` (counted from 1) of the gradient ``grad``.

    Each entry gets the roundings of the expressions
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
    p = p - ((m / c1) lr) / (sqrt(v / c2) + eps), with c1 = 1 - b1**step
    and c2 = 1 - b2**step, left to right, on Python floats for a float64
    vector of at most ADAM_FLOATS_MAX entries (written back with one slice
    assignment), else in arrays. At that size numpy's per-call cost
    outweighs the arithmetic, and the two paths give the same bits: a
    CPython float operation and a numpy float64 ufunc round the same IEEE
    way, ``math.sqrt`` is correctly rounded like ``np.sqrt``, and neither
    fuses operations. Non-finite values pass silently on both paths: no
    Python float operation here can raise, since c1, c2 and
    sqrt(v / c2) + eps are positive or NaN, and v is never negative.
    """
    if params.dtype == np.float64 and len(params) <= ADAM_FLOATS_MAX:
        lr = float(lr)
        values = params.tolist()
        m, v = [0.0] * len(values), [0.0] * len(values)

        def update(grad, step):
            c1, c2 = 1 - ADAM_BETA1 ** step, 1 - ADAM_BETA2 ** step
            for i, g in enumerate(grad.tolist()):
                m[i] = mi = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
                v[i] = vi = ADAM_BETA2 * v[i] + ((1 - ADAM_BETA2) * g) * g
                values[i] -= ((mi / c1) * lr) / (math.sqrt(vi / c2) + ADAM_EPS)
            params[:] = values
        return update

    # the moments, and two scratch vectors
    m, v, a, b = (np.zeros_like(params) for _ in range(4))

    def update(grad, step):
        nonlocal m, v, a, b, params  # the in-place operators rebind them
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, grad, out=a)
        v *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, grad, out=a)
        a *= grad
        v += a
        np.divide(m, 1 - ADAM_BETA1 ** step, out=a)
        a *= lr
        np.divide(v, 1 - ADAM_BETA2 ** step, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        params -= a
    return update


def train(d_s: Dataset, config: TrainConfig) -> Predictor:
    """Fit a predictor on the given (annotated) dataset by mini-batch Adam
    on the binary cross-entropy.

    Initialization and epoch shuffling both derive from config.seed through
    independent spawned streams. A convnet mini-batch is split by position
    into parts of SUB_BATCH images (a ragged batch ends in one shorter
    part), whose gradients are added in part order, and numpy's
    OpenBLAS runs on one thread, so the result is reproducible bit for bit
    whatever the number of scoring threads or BLAS threads.

    Steps compute no loss: each epoch's batch losses are computed after the
    epoch from its scores, and their mean goes into the loss trace. Adam
    allocates nothing per step (``_adam``). Raises TrainingError at the
    end of the epoch in which the loss became non-finite (divergence),
    reporting that epoch; the rest of that epoch trains on non-finite
    parameters to no effect.
    """
    if len(d_s) == 0:
        raise TrainingError("training pool is empty")
    xs = np.asarray(d_s.x)  # colors a lazy image stack once
    arch = _architecture_for(config, xs)
    dtype = _compute_dtype(arch)
    x = prepare_inputs(arch, xs, dtype)
    y = np.asarray(d_s.y, dtype=dtype)

    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(arch, init_seq).astype(dtype)
    shuffle_rng = np.random.Generator(np.random.Philox(shuffle_seq))

    p = unpack_params(params, arch)
    n = len(y)
    sub = SUB_BATCH if arch["kind"] == "convnet" else config.batch_size
    # part i writes its gradient into flats[i]; part 0's is the step's
    flats = [np.zeros_like(params)
             for _ in range(math.ceil(min(config.batch_size, n) / sub))]
    grad_flat = flats[0]
    part_grads = [unpack_params(flat, arch) for flat in flats]
    adam = _adam(params, config.learning_rate)
    prob = np.empty(n, dtype=dtype)  # the epoch's scores, in shuffled order
    # a step's loss gradients, part i's at i * sub; the epoch loss's terms
    dz = np.empty(min(config.batch_size, n), dtype=dtype)
    scratch = [np.empty(n, dtype=dtype) for _ in range(3)]
    step = 0
    trace = []

    def score_part(task):
        i, lo, hi, batch = task
        _, cache = _forward(arch, p, x[order[lo:hi]], want_cache=True,
                            out=prob[lo:hi])
        _backward(arch, p, cache, y_order[lo:hi], batch, part_grads[i],
                  dz[i * sub:i * sub + hi - lo])

    # divergence is detected through the loss; silence the float warnings
    # the overflowing intermediates would otherwise spray
    with np.errstate(over="ignore", invalid="ignore"), \
            _scoring_threads(arch, len(flats)) as run:
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(n)
            y_order = y[order]
            for lo in range(0, n, config.batch_size):
                hi = min(lo + config.batch_size, n)
                if hi - lo <= sub:  # one part: every logistic batch
                    score_part((0, lo, hi, hi - lo))
                else:
                    tasks = [(i, j, min(j + sub, hi), hi - lo)
                             for i, j in enumerate(range(lo, hi, sub))]
                    run(score_part, tasks)
                    for flat in flats[1:len(tasks)]:
                        grad_flat += flat
                step += 1
                adam(grad_flat, step)
            losses = _batch_losses(prob, y_order, config.batch_size,
                                   scratch)
            if not np.isfinite(losses).all():
                raise TrainingError(
                    f"training diverged (non-finite loss) at epoch {epoch}")
            trace.append(float(losses.astype(np.float64).mean()))
    return Predictor(architecture=arch, params=params.astype(np.float64),
                     loss_trace=tuple(trace))


# --------------------------------------------------------------------------
# inference

def predict_soft(predictor: Predictor, xs) -> np.ndarray:
    """Elementwise scores in [0, 1]; a pure function of parameters and input.

    ``xs`` is not converted: an array-like with a shape whose slices are
    arrays, such as the colored-digit stack, is sliced one batch of
    PREDICT_BATCH_BYTES of compute dtype (55 images, or 65,536 scalar
    units) at a time by the thread that scores it, so memory holds a float
    batch per thread rather than a float copy of the input. The whole
    input's shape is checked before any batch is scored. Convnet batches
    are scored on the usable cores, with numpy's OpenBLAS pinned to one
    thread, so the scores do not depend on the core count.
    """
    arch = predictor.architecture
    dtype = _compute_dtype(arch)
    params = predictor.params.astype(dtype)
    p = unpack_params(params, arch)
    _check_inputs(arch, xs)
    out = np.empty(len(xs), dtype=np.float64)
    unit_bytes = np.dtype(dtype).itemsize * math.prod(xs.shape[1:])
    size = max(1, PREDICT_BATCH_BYTES // unit_bytes)
    starts = range(0, len(xs), size)

    def score(lo):
        x = prepare_inputs(arch, xs[lo:lo + size], dtype)
        out[lo:lo + size] = _forward(arch, p, x, want_cache=False)[0]

    with _scoring_threads(arch, len(starts)) as run:
        run(score, starts)
    return out


def discretize(scores, threshold: float = 0.5) -> np.ndarray:
    """Indicator of score >= threshold (the closed-interval convention:
    a score exactly at the threshold counts as positive)."""
    return (np.asarray(scores) >= threshold).astype(np.int8)


@dataclass(frozen=True)
class PredictionMetrics:
    bce: float
    accuracy: float
    balanced_accuracy: float


def evaluate_predictions(scores, labels) -> PredictionMetrics:
    """Clamped BCE, 0.5-threshold accuracy, and balanced accuracy (mean of
    the per-class recalls over the classes present)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DomainError(
            f"scores and labels must have equal length, got {scores.shape} "
            f"and {labels.shape}")
    hard = discretize(scores)
    accuracy = float((hard == labels).mean())
    recalls = [float((hard[labels == c] == c).mean())
               for c in (0, 1) if (labels == c).any()]
    return PredictionMetrics(bce=bce(scores, labels),
                             accuracy=accuracy,
                             balanced_accuracy=float(np.mean(recalls)))

