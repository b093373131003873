"""Closed-form quantities: analytic associational differences, the
accuracy-to-bias worst-case bound, and its attaining predictor.

The bound says that a predictor with misclassification rate ``eps`` can
shift the estimated treatment effect by up to ``eps / min(p, 1-p)`` where
``p`` is the treatment probability -- at least ``2 * eps`` for any
randomization. The worst case concentrates every error in the smaller
treatment group, all pushing the same direction; ``worst_case_predictor``
builds exactly that prediction vector on a finite dataset.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, InfeasibleError
from .scm import Dataset


def analytic_ad(sigma2_y: float) -> float:
    """Exact associational difference of the true outcome in the synthetic
    RCT: phi(1 / sqrt(2 + sigma2_y)) - 0.5. Equals the ATE by randomization."""
    if not sigma2_y > 0.0:
        raise DomainError(f"sigma2_y must be > 0, got {sigma2_y}")
    return float(ndtr(1.0 / math.sqrt(2.0 + sigma2_y))) - 0.5


def analytic_discretized_ad() -> float:
    """Limit associational difference of the 0.5-thresholded oracle
    predictor: phi(1 / sqrt(2)) - 0.5, independent of the outcome noise."""
    return float(ndtr(1.0 / math.sqrt(2.0))) - 0.5


def teb_upper_bound(epsilon: float, p_t: float) -> float:
    """Worst-case |treatment effect bias| of a hard predictor with
    misclassification rate epsilon in [0, 1] under treatment probability
    p_t in (0, 1): epsilon / min(p_t, 1 - p_t). Always >= 2 * epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not 0.0 < p_t < 1.0:
        raise DomainError(f"p_t must lie in (0, 1), got {p_t}")
    return epsilon / min(p_t, 1.0 - p_t)


def worst_case_predictor(dataset: Dataset, epsilon: float) -> np.ndarray:
    """Hard predictions attaining the worst-case bias on a finite dataset.

    Copies the true labels, then turns floor(epsilon * n) of their 0s into
    1s, all inside the smaller treatment group. Flip candidates are taken in
    dataset order, which makes the construction deterministic. The result
    has empirical |TEB| equal to floor(epsilon * n) / n_minority exactly.

    Raises InfeasibleError when the minority group does not contain enough
    flippable labels, reporting the largest attainable epsilon.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in [0, 1], got {epsilon}")
    t = np.asarray(dataset.t)
    y = np.asarray(dataset.y)
    n = len(y)
    n1 = int(t.sum())
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise DomainError("dataset must contain both treatment groups")
    minority_t = 1 if n1 <= n0 else 0
    eligible = np.flatnonzero((t == minority_t) & (y == 0))
    # slack guards the floor against binary rounding of decimal rates
    # (0.3 * 10 is 2.999... in floats but means 3 flips)
    n_flip = int(math.floor(epsilon * n + 1e-9))
    if n_flip > len(eligible):
        max_eps = len(eligible) / n
        raise InfeasibleError(
            f"cannot flip {n_flip} predictions: only {len(eligible)} samples "
            f"in treatment group t={minority_t} have label 0; "
            f"maximum attainable epsilon is {max_eps}")
    predictions = y.astype(np.int8).copy()
    predictions[eligible[:n_flip]] = 1
    return predictions
