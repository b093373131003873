"""Causal evaluation layer: empirical associational differences, treatment
effect bias (TEB) reports, hypothesis tests, rank-correlation matrices and
the Gaussian Frechet distance. The tests and correlations take metric
columns as plain arrays, one value per run.

TEB semantics: under randomization the interventional outcome means are
identified by conditional sample means over the full dataset, so the bias
of a scorer decomposes into per-arm mean residuals,

    teb = mean(f - y | t=1) - mean(f - y | t=0),

which equals the difference between the scorer's empirical associational
difference and the true one. TERB divides by a reference ATE to give a
scale-free error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import stdtr
from scipy.stats import rankdata

from .errors import DomainError, EstimationError
from .models import discretize


def _group_means(values: np.ndarray, treatments: np.ndarray):
    treated = values[treatments == 1]
    control = values[treatments == 0]
    if len(treated) == 0 or len(control) == 0:
        raise EstimationError(
            "both treatment groups must be nonempty "
            f"(treated={len(treated)}, control={len(control)})")
    return treated.mean(), control.mean()


@dataclass(frozen=True)
class TebReport:
    """The empirical associational differences (EAD) of the scores, their
    thresholded version and the labels, and the derived TEB/TERB numbers."""

    ead_soft: float
    ead_hard: float
    ead_truth: float
    teb_soft: float
    teb_hard: float
    terb_soft: Optional[float]
    terb_hard: Optional[float]


def teb_report(scores, labels, treatments, reference_ate: Optional[float] = None,
               threshold: float = 0.5) -> TebReport:
    """Full treatment-effect-bias report for a score vector.

    When no reference ATE is supplied, the empirical truth (the
    associational difference of the labels) is used. TERB fields are None
    (undefined) when the reference ATE is zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    treatments = np.asarray(treatments)
    hard = discretize(scores, threshold).astype(np.float64)

    s1, s0 = _group_means(scores, treatments)
    h1, h0 = _group_means(hard, treatments)
    y1, y0 = _group_means(labels, treatments)
    bias_treated = float(s1 - y1)
    bias_control = float(s0 - y0)
    teb_soft = bias_treated - bias_control
    teb_hard = float((h1 - y1) - (h0 - y0))
    ead_truth = float(y1 - y0)
    if reference_ate is None:
        reference_ate = ead_truth

    terb_soft = teb_soft / reference_ate if reference_ate != 0 else None
    terb_hard = teb_hard / reference_ate if reference_ate != 0 else None
    return TebReport(ead_soft=float(s1 - s0), ead_hard=float(h1 - h0),
                     ead_truth=ead_truth, teb_soft=teb_soft,
                     teb_hard=teb_hard, terb_soft=terb_soft,
                     terb_hard=terb_hard)


# --------------------------------------------------------------------------
# hypothesis tests

@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: float
    degenerate: bool = False


def t_test(samples, mu0: float = 0.0, sides: str = "two") -> TTestResult:
    """One-sample Student t-test.

    sides: "two" for a two-sided p-value, "greater"/"less" for the
    corresponding one-sided alternatives. Zero sample variance produces a
    degenerate-flagged result instead of an infinite statistic.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n < 2:
        raise EstimationError(f"t-test requires at least 2 samples, got {n}")
    se = samples.std(ddof=1) / math.sqrt(n)
    return _t_result(samples.mean() - mu0, se, n - 1,
                     _variance_floor(samples), sides)


def _variance_floor(samples: np.ndarray) -> float:
    # rounding-noise level of the sample's values
    scale = max(1.0, float(np.abs(samples).max()))
    return 64.0 * np.finfo(np.float64).eps * scale


def _t_result(diff: float, se: float, df, floor: float,
              sides: str) -> TTestResult:
    """The t statistic diff / se on df degrees of freedom.

    The one degenerate-variance rule of both t-tests: a standard error at
    or below the rounding floor counts as zero variance. A difference
    within the floor is then neutral evidence (t = 0); any other would give
    an astronomically large statistic, so the result is flagged degenerate.
    """
    if sides not in ("two", "greater", "less"):
        raise DomainError(f"sides must be 'two', 'greater' or 'less', got {sides!r}")
    if se <= floor:
        if abs(diff) <= floor:
            return TTestResult(t=0.0, p=_t_pvalue(0.0, df, sides), df=df)
        return TTestResult(t=math.nan, p=math.nan, df=df, degenerate=True)
    t = diff / se
    return TTestResult(t=float(t), p=_t_pvalue(t, df, sides), df=df)


def _t_pvalue(t: float, df: float, sides: str) -> float:
    # stdtr is the Student t CDF (regularized incomplete beta underneath)
    if sides == "two":
        return float(2.0 * stdtr(df, -abs(t)))
    if sides == "greater":
        return float(stdtr(df, -t))
    return float(stdtr(df, t))


def two_sample_t_test(a, b, sides: str = "two") -> TTestResult:
    """Welch two-sample t-test of mean(a) - mean(b) against zero; with zero
    variance in both samples, the df is the pooled n_a + n_b - 2."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise EstimationError("both samples need at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / len(a) + vb / len(b)
    if se2 > 0:
        df = float(se2 ** 2 / (va ** 2 / (len(a) ** 2 * (len(a) - 1))
                               + vb ** 2 / (len(b) ** 2 * (len(b) - 1))))
    else:
        df = len(a) + len(b) - 2
    floor = max(_variance_floor(a), _variance_floor(b))
    return _t_result(a.mean() - b.mean(), math.sqrt(se2), df, floor, sides)


@dataclass(frozen=True)
class DiscretizationTestResult:
    t: float
    p: float
    df: float
    direction: str
    degenerate: bool = False


def paired_discretization_test(soft, hard) -> DiscretizationTestResult:
    """Test whether thresholding worsens the absolute treatment effect bias.

    ``soft`` and ``hard`` hold the soft and discretized |TEB| of the same
    runs, so this is a paired t-test on the differences soft - hard, with
    the one-sided alternative mean < 0 (discretization hurts).
    Constant differences yield a degenerate-flagged result.
    """
    soft = np.asarray(soft, dtype=np.float64)
    hard = np.asarray(hard, dtype=np.float64)
    if len(soft) != len(hard) or len(soft) < 2:
        raise EstimationError(
            "discretization test requires two equal-length arrays of >= 2 "
            f"runs, got {len(soft)} and {len(hard)}")
    direction = ("hard worse" if soft.mean() < hard.mean()
                 else "soft worse" if soft.mean() > hard.mean() else "equal")
    res = t_test(soft - hard, mu0=0.0, sides="less")
    return DiscretizationTestResult(t=res.t, p=res.p, df=res.df,
                                    direction=direction,
                                    degenerate=res.degenerate)


# --------------------------------------------------------------------------
# rank correlation

def spearman(x, y) -> float:
    """Spearman rank correlation of two vectors, average ranks on ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3:
        raise EstimationError(
            "rank correlation requires two equal-length vectors of >= 3 values")
    rx, ry = rankdata(x), rankdata(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return math.nan
    return float(np.corrcoef(rx, ry)[0, 1])


def spearman_matrix(columns: dict) -> dict:
    """Pairwise Spearman matrix over named metric columns ({name: values}).

    Returns {"columns": names, "matrix": rows of floats, "undefined": names}.
    Constant columns get NaN off-diagonal entries and are listed in
    ``undefined``; the diagonal is exactly 1 regardless.
    """
    names = list(columns)
    lengths = sorted({len(values) for values in columns.values()})
    if len(lengths) != 1 or lengths[0] < 3:
        raise EstimationError("correlation matrix requires equal-length "
                              f"columns of >= 3 rows, got lengths {lengths}")
    values = {}
    for name in names:
        values[name] = np.asarray(columns[name], dtype=np.float64)
        if not np.isfinite(values[name]).all():
            raise EstimationError(f"column {name!r} is not fully populated")
    undefined = [name for name in names
                 if (values[name] == values[name][0]).all()]
    matrix = np.eye(len(names))
    for i, ci in enumerate(names):
        for j in range(i + 1, len(names)):
            r = spearman(values[ci], values[names[j]])
            matrix[i, j] = matrix[j, i] = r
    return {"columns": names, "matrix": matrix.tolist(),
            "undefined": undefined}


# --------------------------------------------------------------------------
# Gaussian Frechet distance

EIGEN_CLAMP_REL = 1e-8   # negatives beyond -rel * max-eigenvalue are an error


def frechet_distance(features_a, features_b) -> float:
    """Frechet distance between the Gaussians fitted to two feature sets:

        ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2))

    with sample means and covariances (ddof=1). The matrix square root is
    taken by symmetric eigendecomposition of sqrt(S_a) S_b sqrt(S_a); tiny
    negative eigenvalues from numerical drift are clamped to zero, larger
    ones raise.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(features_b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DomainError(
            f"feature sets must be 2-d with equal width, got {a.shape} and {b.shape}")
    if a.shape[1] == 0:
        raise DomainError("feature dimension must be at least 1")
    if len(a) < 2 or len(b) < 2:
        raise EstimationError("each feature set needs at least 2 rows")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False, ddof=1).reshape(a.shape[1], a.shape[1])
    cov_b = np.cov(b, rowvar=False, ddof=1).reshape(b.shape[1], b.shape[1])
    eigs, vecs = _clamped_eigh(cov_a, vectors=True)
    sqrt_a = (vecs * np.sqrt(eigs)) @ vecs.T
    eigs, _ = _clamped_eigh(sqrt_a @ cov_b @ sqrt_a)
    trace_sqrt = np.sqrt(eigs).sum()
    mean_term = float(((mu_a - mu_b) ** 2).sum())
    value = mean_term + float(np.trace(cov_a) + np.trace(cov_b)
                              - 2.0 * trace_sqrt)
    return max(value, 0.0)


def _clamped_eigh(m: np.ndarray, vectors: bool = False):
    """Eigenvalues of the symmetric part of ``m`` with drift below zero
    clamped to zero, and its eigenvectors when ``vectors`` (else None).

    Raises when an eigenvalue lies below -EIGEN_CLAMP_REL times the largest.
    Without ``vectors`` the eigenvalues come from ``eigvalsh``, whose last
    bits differ from those ``eigh`` computes alongside the vectors.
    """
    sym = (m + m.T) / 2.0
    if vectors:
        eigs, vecs = np.linalg.eigh(sym)
    else:
        eigs, vecs = np.linalg.eigvalsh(sym), None
    floor = -EIGEN_CLAMP_REL * max(eigs.max(), 0.0)
    if (eigs < floor).any():
        raise EstimationError(
            f"matrix is not positive semidefinite: eigenvalue {eigs.min()} "
            f"below the clamp tolerance {floor}")
    return np.clip(eigs, 0.0, None), vecs
