"""Annotation flag assignment and validation-set selection.

Annotation is the selection step that decides which units get a human
label. Random selection keeps the annotated pool representative; selection
conditioned on an experimental setting (the practical default) makes the
annotated and unannotated pools differ in distribution, which is exactly
the mechanism that lets a trained predictor bias the downstream effect
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, SamplingError
from .scm import Dataset

SCHEME_KINDS = ("random", "covariate_biased")


@dataclass(frozen=True)
class SamplingScheme:
    """How the annotation flag is assigned.

    kind: "random" draws uniformly from all units; "covariate_biased" draws
        uniformly among the units whose experimental setting ``w`` is 0
        only (the black-pen images of the colored-digit benchmark).
    n_s: number of units to annotate.
    seed: RNG seed for the selection shuffle.
    """

    kind: str
    n_s: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigurationError(
                f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if not (isinstance(self.n_s, (int, np.integer)) and self.n_s > 0):
            raise ConfigurationError(f"n_s must be a positive integer, got {self.n_s}")


def assign_annotation(dataset: Dataset, scheme: SamplingScheme) -> Dataset:
    """Return a copy of the dataset with exactly n_s units flagged s=1.

    Selection is a seeded partial shuffle without replacement, over all
    units (random scheme) or over the units whose setting ``w`` is 0
    (covariate_biased scheme). Never mutates the input; only the
    annotation column changes.
    """
    n = len(dataset)
    if not scheme.n_s < n:
        raise SamplingError(
            f"n_s must be smaller than the dataset size; got n_s={scheme.n_s} "
            f"on {n} samples (an empty unannotated pool is not allowed)")
    if scheme.kind == "random":
        eligible = np.arange(n)
    else:
        eligible = np.flatnonzero(np.asarray(dataset.w) == 0)
    if len(eligible) < scheme.n_s:
        raise SamplingError(
            f"cannot annotate {scheme.n_s} samples: only {len(eligible)} "
            f"eligible under scheme {scheme.kind!r}")
    rng = np.random.Generator(np.random.Philox(key=scheme.seed))
    chosen = eligible[rng.permutation(len(eligible))[:scheme.n_s]]
    s = np.zeros(n, dtype=np.int8)
    s[chosen] = 1
    return dataset.with_annotation(s)


def validation_indices(dataset: Dataset, size: Optional[int] = None,
                       seed: int = 0) -> np.ndarray:
    """Indices of a held-out validation set, drawn uniformly from the
    unannotated pool. Defaults to the annotated-pool size, the rule used
    throughout the image-benchmark experiments."""
    pool = np.flatnonzero(dataset.s == 0)
    if size is None:
        size = dataset.n_s
    if size <= 0:
        raise SamplingError(f"validation size must be positive, got {size}")
    if len(pool) < size:
        raise SamplingError(
            f"cannot draw {size} validation samples from an unannotated pool "
            f"of {len(pool)}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.sort(pool[rng.permutation(len(pool))[:size]])
