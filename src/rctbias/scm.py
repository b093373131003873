"""Synthetic partially annotated RCT with a Gaussian-threshold outcome.

The generative model produces, per unit: a standard-normal experimental
setting ``w``, a Bernoulli treatment ``t``, a scalar observation
``x = t + w + noise`` and a binary outcome ``y = 1[x + outcome_noise >= 0]``
where the outcome noise is centered normal with variance ``sigma2_y``.
Because treatment is randomized, the associational difference of ``y``
identifies the average treatment effect, and both have the closed form
``phi(1 / sqrt(2 + sigma2_y)) - 0.5`` (``phi`` = standard normal CDF).

Randomness comes from a counter-based Philox stream keyed by the config
seed, with normals drawn by inverse-CDF transform of the uniform stream.
This makes generation bit-identical per seed and independent replications
with distinct seeds safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError, DomainError

# Smallest uniform fed to the inverse CDF; guards against ndtri(0) = -inf.
_U_FLOOR = 2.0 ** -53


@dataclass(frozen=True)
class ScmConfig:
    """Parameters of the synthetic RCT generator.

    p_t: treatment probability, strictly inside (0, 1).
    sigma2_y: outcome-noise variance, strictly positive.
    n: number of units to draw.
    seed: 64-bit unsigned RNG seed.
    """

    p_t: float
    sigma2_y: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.p_t < 1.0:
            raise ConfigurationError(
                f"p_t must satisfy 0 < p_t < 1, got {self.p_t}")
        if not self.sigma2_y > 0.0:
            raise ConfigurationError(
                f"sigma2_y must be > 0, got {self.sigma2_y}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n}")
        if not (isinstance(self.seed, (int, np.integer))
                and 0 <= self.seed < 2 ** 64):
            raise ConfigurationError(
                f"seed must be an unsigned 64-bit integer, got {self.seed}")


class Dataset:
    """Ordered collection of samples stored column-wise.

    Columns are read-only views of the arrays passed in, so the caller's
    arrays stay writeable and no column is copied. ``x`` holds scalar
    observations for the synthetic RCT or images (n, H, W, C) for image
    benchmarks; an array-like ``x`` with a shape, such as the colored-digit
    stack, is kept as it is. The annotation flag ``s`` partitions the data
    into the annotated pool (s=1) and the unannotated pool (s=0).
    """

    def __init__(self, w, t, x, y, s):
        w, t, y, s = (np.asarray(a).view() for a in (w, t, y, s))
        if isinstance(x, np.ndarray) or not hasattr(x, "shape"):
            x = np.asarray(x).view()
            x.setflags(write=False)
        n = len(w)
        for name, col in (("t", t), ("x", x), ("y", y), ("s", s)):
            if len(col) != n:
                raise ConfigurationError(
                    f"column {name} has length {len(col)}, expected {n}")
        for name, col in (("t", t), ("y", y), ("s", s)):
            if not ((col == 0) | (col == 1)).all():
                raise ConfigurationError(f"column {name} must be binary, "
                                         f"found values {np.unique(col)[:5]}")
        self.w, self.t, self.x, self.y, self.s = w, t, x, y, s
        for col in (w, t, y, s):
            col.setflags(write=False)

    def __len__(self) -> int:
        return len(self.w)

    @property
    def n_s(self) -> int:
        return int(self.s.sum())

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.w[indices], self.t[indices], self.x[indices],
                       self.y[indices], self.s[indices])

    @property
    def annotated(self) -> "Dataset":
        """The annotated partition (s=1)."""
        return self.subset(np.flatnonzero(self.s == 1))

    def with_annotation(self, s) -> "Dataset":
        """Copy of the dataset with a replacement annotation column."""
        return Dataset(self.w, self.t, self.x, self.y, np.asarray(s))


def sample_rct(config: ScmConfig) -> Dataset:
    """Draw a dataset from the synthetic RCT.

    All units start with annotation flag s=1; annotation assignment is a
    separate explicit pass (see :mod:`rctbias.annotation`). Deterministic
    given the config seed. The four rows of uniforms are clamped in place
    and rows 1-3 become the normals ``w``, the observation noise and the
    outcome noise, so ``w`` is a view of the uniforms' block.
    """
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.random((4, config.n))
    np.maximum(u, _U_FLOOR, out=u)
    t = (u[0] < config.p_t).astype(np.int8)
    ndtri(u[1:], out=u[1:])
    w, noise_x, noise_y = u[1:]
    x = t + w
    x += noise_x              # (t + w) + noise: another order moves bits
    noise_y *= np.sqrt(config.sigma2_y)
    noise_y += x              # the outcome's latent x + noise_y
    y = (noise_y >= 0.0).astype(np.int8)
    s = np.ones(config.n, dtype=np.int8)
    return Dataset(w, t, x, y, s)


def oracle_conditional_mean(x, sigma2_y: float):
    """Exact conditional outcome mean E[Y | X = x] = phi(x / sqrt(sigma2_y)).

    Accepts a scalar or an array of observations.
    """
    if not sigma2_y > 0.0:
        raise DomainError(f"sigma2_y must be > 0, got {sigma2_y}")
    x = np.asarray(x, dtype=float)
    out = ndtr(x / np.sqrt(sigma2_y))
    return float(out) if out.ndim == 0 else out

