"""Trainable soft-outcome predictors and the discretization operator.

Three architectures cover the experiments: a logistic scorer for scalar
observations, a one-hidden-layer ReLU network (256 units) for generic
feature vectors, and a small convolutional network for 28x28 RGB images
(20 then 50 filters of size 5x5, each followed by ReLU and 2x2 max
pooling, a 500-unit fully connected layer, and a single sigmoid logit).

Everything is plain numpy with hand-written backpropagation: parameters
live in one flat vector per model, training is mini-batch Adam with
moment constants (0.9, 0.9, 1e-8), and all randomness (initialization,
shuffling) derives from the config seed, so identical config and data
reproduce identical parameters bit for bit. Convolutions are evaluated
as a banded matrix product over row windows, which trades some redundant
multiply-adds for BLAS-friendly memory access. A training step builds
each band matrix once and its backward pass reuses it.

Inference (``predict_soft``) keeps the caller's input as it is, pixel
bytes for images, and casts one batch of PREDICT_BATCH units at a time,
so memory holds one float batch rather than a float copy of the input.
Its forward pass keeps no backward cache and pools each raw convolution
product before adding the bias and applying ReLU in place on the
quarter-size result. That gives the training forward's probabilities bit
for bit: rounding is monotone, so max(a) + c == max(a + c), and ReLU
commutes with max.

Compute dtypes are fixed per release: float64 for logistic and MLP,
float32 for the convolutional network. Gradient checks can request
float64 through ``loss_and_grad``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, DomainError, TrainingError
from .scm import Dataset

MODEL_KINDS = ("logistic", "mlp", "convnet")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8

PROB_CLIP = 1e-7          # probability clamp applied before logs in the BCE
MLP_HIDDEN = 256
CONV_KERNEL = 5
CONV1_FILTERS = 20
CONV2_FILTERS = 50
CONV_FC_WIDTH = 500
PIXEL_SCALE = 1.0 / 255.0  # per-channel scaling to [0, 1]
PIXEL_CENTER = 0.5         # subtracted from every channel after scaling
PREDICT_BATCH = 512        # units per inference batch in predict_soft


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    positive_weight multiplies the positive-class loss term; "auto" derives
    it from the class balance of the training pool as sum(1-y) / sum(y).
    """

    model_kind: str
    learning_rate: float = 0.001
    epochs: int = 6
    batch_size: int = 64
    positive_weight: Union[float, str, None] = None
    seed: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if not self.learning_rate > 0:
            raise ConfigurationError(
                f"learning_rate must be > 0, got {self.learning_rate}")
        if not (isinstance(self.epochs, (int, np.integer)) and self.epochs >= 1):
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not (isinstance(self.batch_size, (int, np.integer))
                and self.batch_size >= 1):
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.positive_weight is not None and self.positive_weight != "auto":
            if not (isinstance(self.positive_weight, (int, float))
                    and self.positive_weight > 0):
                raise ConfigurationError(
                    "positive_weight must be a positive number, 'auto' or None, "
                    f"got {self.positive_weight!r}")


@dataclass(frozen=True, eq=False)
class Predictor:
    """A trained scorer: architecture descriptor, flat parameter vector,
    the config it was trained with, and the per-epoch mean loss trace."""

    architecture: dict
    params: np.ndarray
    train_config: Optional[TrainConfig] = None
    loss_trace: tuple = ()

    def __post_init__(self):
        self.params.setflags(write=False)


# --------------------------------------------------------------------------
# architecture descriptors and parameter packing

def _conv_dims(arch):
    h, w, c = arch["height"], arch["width"], arch["channels"]
    k = CONV_KERNEL
    h1, w1 = h - k + 1, w - k + 1            # after conv1
    hp1, wp1 = h1 // 2, w1 // 2              # after pool1
    h2, w2 = hp1 - k + 1, wp1 - k + 1        # after conv2
    hp2, wp2 = h2 // 2, w2 // 2              # after pool2
    flat = hp2 * wp2 * CONV2_FILTERS
    return (h1, w1), (hp1, wp1), (h2, w2), (hp2, wp2), flat


def param_layout(arch: dict) -> list:
    """(name, shape, fan_in) triples, in initialization order."""
    kind = arch["kind"]
    if kind == "logistic":
        d = arch["in_dim"]
        return [("w", (d,), d), ("b", (), d)]
    if kind == "mlp":
        d, hidden = arch["in_dim"], arch["hidden"]
        return [("w1", (d, hidden), d), ("b1", (hidden,), d),
                ("w2", (hidden,), hidden), ("b2", (), hidden)]
    if kind == "convnet":
        c = arch["channels"]
        k = CONV_KERNEL
        _, _, _, _, flat = _conv_dims(arch)
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


def param_count(arch: dict) -> int:
    return sum(int(np.prod(shape, dtype=np.int64)) or 1
               for _, shape, _ in param_layout(arch))


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
# banded convolution: row windows x precomputed band matrix

class _ConvPlan:
    """Static index plan for one convolution layer on fixed input dims."""

    def __init__(self, height, width, c_in, c_out):
        k = CONV_KERNEL
        self.h, self.w, self.c_in, self.c_out = height, width, c_in, c_out
        self.oh, self.ow = height - k + 1, width - k + 1
        self.kdim = k * width * c_in
        di, dj, ow, c, f = np.meshgrid(
            np.arange(k), np.arange(k), np.arange(self.ow),
            np.arange(c_in), np.arange(c_out), indexing="ij")
        self.band_rows = ((di * width + ow + dj) * c_in + c).ravel()
        self.band_cols = (ow * c_out + f).ravel()
        self.kernel_idx = (((di * k + dj) * c_in + c) * c_out + f).ravel()
        self.gather_shape = (k, k, self.ow, c_in, c_out)

    def band(self, kernel, dtype):
        m = np.zeros((self.kdim, self.ow * self.c_out), dtype=dtype)
        m[self.band_rows, self.band_cols] = kernel.ravel()[self.kernel_idx]
        return m

    def kernel_grad(self, d_band):
        vals = d_band[self.band_rows, self.band_cols].reshape(self.gather_shape)
        return vals.sum(axis=2)  # sum over output columns sharing a weight

    def row_windows(self, x):
        # x (B, H, W, C) -> (B*OH, k*W*C)
        b = x.shape[0]
        k = CONV_KERNEL
        rows = np.empty((b, self.oh, k, self.w, self.c_in), dtype=x.dtype)
        for di in range(k):
            rows[:, :, di] = x[:, di:di + self.oh]
        return rows.reshape(b * self.oh, self.kdim)

    def fold_rows(self, d_rows, batch):
        # inverse of row_windows: overlap-add back to (B, H, W, C)
        k = CONV_KERNEL
        d_rows = d_rows.reshape(batch, self.oh, k, self.w, self.c_in)
        dx = np.zeros((batch, self.h, self.w, self.c_in), dtype=d_rows.dtype)
        for di in range(k):
            dx[:, di:di + self.oh] += d_rows[:, :, di]
        return dx

    def product(self, x, kernel):
        """Convolution without the bias: (B, OH, OW, C_out), plus the row
        windows and band matrix the backward pass reuses."""
        rows = self.row_windows(x)
        band = self.band(kernel, x.dtype)
        out = (rows @ band).reshape(x.shape[0], self.oh, self.ow, self.c_out)
        return out, rows, band

    def backward(self, d_out, rows, batch, band=None):
        """Kernel and bias gradients; the input gradient too when given the
        forward pass's band matrix (None otherwise)."""
        dtype = d_out.dtype
        d_flat = d_out.reshape(-1, self.ow * self.c_out)
        d_band = rows.T @ d_flat
        d_kernel = self.kernel_grad(d_band).astype(dtype, copy=False)
        d_bias = d_out.sum(axis=(0, 1, 2))
        dx = None
        if band is not None:
            d_rows = d_flat @ band.T
            dx = self.fold_rows(d_rows, batch)
        return dx, d_kernel, d_bias


_PLAN_CACHE: dict = {}


def _plans(arch):
    key = (arch["height"], arch["width"], arch["channels"])
    if key not in _PLAN_CACHE:
        (h1, w1), (hp1, wp1), _, _, _ = _conv_dims(arch)
        _PLAN_CACHE[key] = (
            _ConvPlan(arch["height"], arch["width"], arch["channels"],
                      CONV1_FILTERS),
            _ConvPlan(hp1, wp1, CONV1_FILTERS, CONV2_FILTERS),
        )
    return _PLAN_CACHE[key]


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


# --------------------------------------------------------------------------
# forward / backward per architecture

def _compute_dtype(arch):
    return np.float32 if arch["kind"] == "convnet" else np.float64


def _check_inputs(arch: dict, xs: np.ndarray) -> None:
    """Raise DomainError unless ``xs`` has the architecture's input shape."""
    kind = arch["kind"]
    if kind in ("logistic", "mlp"):
        features = xs.shape[1] if xs.ndim == 2 else 1 if xs.ndim == 1 else None
        if features != arch["in_dim"]:
            raise DomainError(
                f"{kind} expects features of dimension {arch['in_dim']}, "
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
    if arch["kind"] in ("logistic", "mlp"):
        x = xs.astype(dtype, copy=False)
        return x[:, None] if x.ndim == 1 else x
    return xs.astype(dtype) * dtype(PIXEL_SCALE) - dtype(PIXEL_CENTER)


def _forward(arch, p, x, want_cache):
    kind = arch["kind"]
    if kind == "logistic":
        z = x @ p["w"] + p["b"]
        prob = expit(z)
        return prob, (x, prob) if want_cache else None
    if kind == "mlp":
        a = x @ p["w1"] + p["b1"]
        h = np.maximum(a, 0)
        z = h @ p["w2"] + p["b2"]
        prob = expit(z)
        return prob, (x, a, h, prob) if want_cache else None
    plan1, plan2 = _plans(arch)
    if not want_cache:
        # inference: pool first, then bias and ReLU (see the module docstring)
        p1 = _pool_forward(plan1.product(x, p["k1"])[0], want_masks=False)[0]
        np.maximum(np.add(p1, p["c1"], out=p1), 0, out=p1)
        p2 = _pool_forward(plan2.product(p1, p["k2"])[0], want_masks=False)[0]
        np.maximum(np.add(p2, p["c2"], out=p2), 0, out=p2)
        h3 = np.maximum(p2.reshape(x.shape[0], -1) @ p["w3"] + p["b3"], 0)
        return expit(h3 @ p["w4"] + p["b4"]), None
    a1, rows1, _ = plan1.product(x, p["k1"])
    a1 += p["c1"]
    r1 = np.maximum(a1, 0)
    p1, masks1 = _pool_forward(r1)
    a2, rows2, band2 = plan2.product(p1, p["k2"])
    a2 += p["c2"]
    r2 = np.maximum(a2, 0)
    p2, masks2 = _pool_forward(r2)
    flat = p2.reshape(x.shape[0], -1)
    a3 = flat @ p["w3"] + p["b3"]
    h3 = np.maximum(a3, 0)
    z = h3 @ p["w4"] + p["b4"]
    prob = expit(z)
    cache = (x, rows1, a1, r1.shape, masks1, p1, rows2, band2, a2, r2.shape,
             masks2, flat, a3, h3, prob)
    return prob, cache


def _backward(arch, p, cache, y, pos_weight, grads):
    """Fill ``grads`` (dict of arrays shaped like the params) with the
    gradient of the mean weighted BCE; uses dL/dlogit =
    ((1-y) p - w y (1-p)) / batch."""
    kind = arch["kind"]
    if kind == "logistic":
        x, prob = cache
        dz = ((1 - y) * prob - pos_weight * y * (1 - prob)) / len(y)
        grads["w"][...] = x.T @ dz
        grads["b"][...] = dz.sum()
        return
    if kind == "mlp":
        x, a, h, prob = cache
        dz = ((1 - y) * prob - pos_weight * y * (1 - prob)) / len(y)
        grads["w2"][...] = h.T @ dz
        grads["b2"][...] = dz.sum()
        dh = np.outer(dz, p["w2"]) * (a > 0)
        grads["w1"][...] = x.T @ dh
        grads["b1"][...] = dh.sum(axis=0)
        return
    (x, rows1, a1, r1_shape, masks1, p1, rows2, band2, a2, r2_shape,
     masks2, flat, a3, h3, prob) = cache
    plan1, plan2 = _plans(arch)
    batch = len(y)
    dz = (((1 - y) * prob - pos_weight * y * (1 - prob)) / batch).astype(
        prob.dtype)
    grads["w4"][...] = h3.T @ dz
    grads["b4"][...] = dz.sum()
    dh3 = np.outer(dz, p["w4"]) * (a3 > 0)
    grads["w3"][...] = flat.T @ dh3
    grads["b3"][...] = dh3.sum(axis=0)
    dp2 = (dh3 @ p["w3"].T).reshape(batch, r2_shape[1] // 2,
                                    r2_shape[2] // 2, CONV2_FILTERS)
    da2 = _pool_backward(dp2, masks2, r2_shape) * (a2 > 0)
    dp1, dk2, dc2 = plan2.backward(da2, rows2, batch, band2)
    grads["k2"][...] = dk2
    grads["c2"][...] = dc2
    da1 = _pool_backward(dp1, masks1, r1_shape) * (a1 > 0)
    _, dk1, dc1 = plan1.backward(da1, rows1, batch)
    grads["k1"][...] = dk1
    grads["c1"][...] = dc1


def bce(prob, y, pos_weight=1.0) -> float:
    """Mean (optionally positive-weighted) binary cross-entropy with the
    probabilities clamped to [1e-7, 1 - 1e-7] before the logs."""
    prob = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    terms = pos_weight * y * np.log(prob) + (1 - y) * np.log1p(-prob)
    return float(-terms.mean())


def loss_and_grad(arch: dict, params: np.ndarray, xs, y,
                  positive_weight: float = 1.0, dtype=None):
    """Weighted BCE loss and its gradient as a flat vector.

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
    _backward(arch, p, cache, y, positive_weight, grads)
    return bce(prob, y, positive_weight), grad_flat


# --------------------------------------------------------------------------
# training

def _architecture_for(config: TrainConfig, x: np.ndarray) -> dict:
    if config.model_kind == "logistic":
        in_dim = 1 if x.ndim == 1 else int(x.shape[1])
        return {"kind": "logistic", "in_dim": in_dim}
    if config.model_kind == "mlp":
        in_dim = 1 if x.ndim == 1 else int(x.shape[1])
        return {"kind": "mlp", "in_dim": in_dim, "hidden": MLP_HIDDEN}
    x = np.asarray(x)
    if x.ndim != 4:
        raise DomainError(
            f"convnet training requires image observations (n, H, W, C), "
            f"got shape {x.shape}")
    return {"kind": "convnet", "height": int(x.shape[1]),
            "width": int(x.shape[2]), "channels": int(x.shape[3])}


def _resolve_positive_weight(config: TrainConfig, y: np.ndarray) -> float:
    if config.positive_weight is None:
        return 1.0
    if config.positive_weight == "auto":
        n_pos = int(y.sum())
        n_neg = len(y) - n_pos
        if n_pos == 0 or n_neg == 0:
            raise TrainingError(
                "automatic positive weighting requires both outcome classes "
                f"in the training pool (got {n_pos} positives of {len(y)})")
        return n_neg / n_pos
    return float(config.positive_weight)


def train(d_s: Dataset, config: TrainConfig) -> Predictor:
    """Fit a predictor on the given (annotated) dataset by mini-batch Adam
    on the weighted binary cross-entropy.

    Initialization and epoch shuffling both derive from config.seed through
    independent spawned streams, so the result is reproducible bit for bit.
    Raises TrainingError on divergence (non-finite loss), reporting the
    epoch.
    """
    if len(d_s) == 0:
        raise TrainingError("training pool is empty")
    arch = _architecture_for(config, np.asarray(d_s.x))
    dtype = _compute_dtype(arch)
    x = prepare_inputs(arch, d_s.x, dtype)
    y = np.asarray(d_s.y, dtype=dtype)
    pos_weight = _resolve_positive_weight(config, y)

    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(arch, init_seq).astype(dtype)
    shuffle_rng = np.random.Generator(np.random.Philox(shuffle_seq))

    p = unpack_params(params, arch)
    grad_flat = np.zeros_like(params)
    grads = unpack_params(grad_flat, arch)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0
    n = len(y)
    trace = []
    # divergence is detected through the loss; silence the float warnings
    # the overflowing intermediates would otherwise spray
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(n)
            epoch_losses = []
            for lo in range(0, n, config.batch_size):
                sl = order[lo:lo + config.batch_size]
                prob, cache = _forward(arch, p, x[sl], want_cache=True)
                loss = bce(prob, y[sl], pos_weight)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"training diverged (non-finite loss) at epoch {epoch}")
                epoch_losses.append(loss)
                _backward(arch, p, cache, y[sl], pos_weight, grads)
                step += 1
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * grad_flat
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * grad_flat * grad_flat
                m_hat = m / (1 - ADAM_BETA1 ** step)
                v_hat = v / (1 - ADAM_BETA2 ** step)
                params -= (config.learning_rate * m_hat
                           / (np.sqrt(v_hat) + ADAM_EPS)).astype(dtype)
            trace.append(float(np.mean(epoch_losses)))
    return Predictor(architecture=arch, params=params.astype(np.float64),
                     train_config=config, loss_trace=tuple(trace))


def predict_soft(predictor: Predictor, xs) -> np.ndarray:
    """Elementwise scores in [0, 1]; a pure function of parameters and input.

    The whole input's shape is checked before any batch is scored; inputs
    are then cast to the compute dtype one batch of PREDICT_BATCH units at a
    time.
    """
    arch = predictor.architecture
    dtype = _compute_dtype(arch)
    params = predictor.params.astype(dtype)
    p = unpack_params(params, arch)
    xs = np.asarray(xs)
    _check_inputs(arch, xs)
    out = np.empty(len(xs), dtype=np.float64)
    for lo in range(0, len(xs), PREDICT_BATCH):
        x = prepare_inputs(arch, xs[lo:lo + PREDICT_BATCH], dtype)
        prob, _ = _forward(arch, p, x, want_cache=False)
        out[lo:lo + PREDICT_BATCH] = prob
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


def export_scores_csv(dataset: Dataset, scores, path) -> None:
    """Write the dataset columns with the score vector joined as a final
    column (header w,t,x,y,s,score). Scalar observations only."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != len(dataset):
        raise DomainError(
            f"score vector has length {len(scores)}, dataset has "
            f"{len(dataset)} rows")
    if dataset.x.ndim != 1:
        raise ConfigurationError(
            "CSV score export requires scalar observations; "
            f"x has shape {dataset.x.shape}")
    with open(path, "w", newline="") as fh:
        fh.write("w,t,x,y,s,score\n")
        for i in range(len(dataset)):
            fh.write(f"{float(dataset.w[i])!r},{int(dataset.t[i])},"
                     f"{float(dataset.x[i])!r},{int(dataset.y[i])},"
                     f"{int(dataset.s[i])},{float(scores[i])!r}\n")


# --------------------------------------------------------------------------
# persistence

_PREDICTOR_FORMAT = "rctbias-predictor-v1"


def save_predictor(predictor: Predictor, path) -> None:
    """Self-describing JSON: architecture, flat parameters, train config."""
    doc = {
        "format": _PREDICTOR_FORMAT,
        "architecture": predictor.architecture,
        "parameters": [float(p) for p in predictor.params],
        "train_config": asdict(predictor.train_config)
        if predictor.train_config else None,
        "loss_trace": list(predictor.loss_trace),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_predictor(path) -> Predictor:
    with open(Path(path)) as fh:
        doc = json.load(fh)
    if doc.get("format") != _PREDICTOR_FORMAT:
        raise ConfigurationError(
            f"unrecognized predictor file format {doc.get('format')!r}")
    config = TrainConfig(**doc["train_config"]) if doc["train_config"] else None
    params = np.array(doc["parameters"], dtype=np.float64)
    expected = param_count(doc["architecture"])
    if len(params) != expected:
        raise ConfigurationError(
            f"predictor file has {len(params)} parameters, architecture "
            f"expects {expected}")
    return Predictor(architecture=doc["architecture"], params=params,
                     train_config=config,
                     loss_trace=tuple(doc.get("loss_trace", ())))
