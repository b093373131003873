"""Causal evaluation layer: empirical associational differences, treatment
effect bias (TEB) reports, hypothesis tests, rank-correlation matrices and
the Gaussian Frechet distance.

TEB semantics: under randomization the interventional outcome means are
identified by conditional sample means over the full dataset, so the bias
of a scorer decomposes into per-arm mean residuals,

    teb = mean(f - y | t=1) - mean(f - y | t=0),

which equals the difference between the scorer's empirical associational
difference and the true one. TERB divides by a reference ATE to give a
scale-free error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtr
from scipy.stats import rankdata

from .errors import ConfigurationError, DomainError, EstimationError
from .models import discretize

REFERENCE_PROVENANCES = ("empirical_truth", "analytic", "designed")


def _group_means(values: np.ndarray, treatments: np.ndarray):
    treated = values[treatments == 1]
    control = values[treatments == 0]
    if len(treated) == 0 or len(control) == 0:
        raise EstimationError(
            "both treatment groups must be nonempty "
            f"(treated={len(treated)}, control={len(control)})")
    return treated.mean(), control.mean()


def empirical_ad(outcomes, treatments) -> float:
    """Difference of group sample means: mean(y | t=1) - mean(y | t=0)."""
    outcomes = np.asarray(outcomes, dtype=np.float64)
    treatments = np.asarray(treatments)
    m1, m0 = _group_means(outcomes, treatments)
    return float(m1 - m0)


@dataclass(frozen=True)
class TebReport:
    """Per-arm interventional biases and the derived TEB/TERB numbers, for
    both the soft scores and their thresholded version."""

    ead_soft: float
    ead_hard: float
    ead_truth: float
    bias_treated: float
    bias_control: float
    teb_soft: float
    teb_hard: float
    terb_soft: Optional[float]
    terb_hard: Optional[float]
    reference_ate: float
    reference_provenance: str


def teb_report(scores, labels, treatments, reference_ate: Optional[float] = None,
               provenance: Optional[str] = None,
               threshold: float = 0.5) -> TebReport:
    """Full treatment-effect-bias report for a score vector.

    When no reference ATE is supplied, the empirical truth (the
    associational difference of the labels) is used and tagged as such.
    TERB fields are None (undefined) when the reference ATE is zero.
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
        if provenance not in (None, "empirical_truth"):
            raise ConfigurationError(
                f"provenance {provenance!r} requires an explicit reference_ate")
        reference_ate, provenance = ead_truth, "empirical_truth"
    elif provenance not in REFERENCE_PROVENANCES:
        raise ConfigurationError(
            f"provenance must be one of {REFERENCE_PROVENANCES}, got {provenance!r}")

    terb_soft = teb_soft / reference_ate if reference_ate != 0 else None
    terb_hard = teb_hard / reference_ate if reference_ate != 0 else None
    return TebReport(ead_soft=float(s1 - s0), ead_hard=float(h1 - h0),
                     ead_truth=ead_truth, bias_treated=bias_treated,
                     bias_control=bias_control, teb_soft=teb_soft,
                     teb_hard=teb_hard, terb_soft=terb_soft,
                     terb_hard=terb_hard, reference_ate=float(reference_ate),
                     reference_provenance=provenance)


# --------------------------------------------------------------------------
# metric table

METRIC_COLUMNS = ("bce_val", "accuracy_val", "balanced_accuracy_val",
                  "abs_teb_val", "accuracy_full", "balanced_accuracy_full",
                  "abs_teb_full", "abs_teb_full_discretized")
ID_COLUMNS = ("seed", "scheme", "model_kind")


@dataclass(frozen=True)
class MetricRow:
    seed: int
    scheme: str
    model_kind: str
    bce_val: float
    accuracy_val: float
    balanced_accuracy_val: float
    abs_teb_val: float
    accuracy_full: float
    balanced_accuracy_full: float
    abs_teb_full: float
    abs_teb_full_discretized: float


class MetricTable:
    """One row of evaluation metrics per run; the substrate for the
    correlation matrices and the hypothesis tests."""

    def __init__(self, rows: Sequence[MetricRow] = ()):
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        if name in ID_COLUMNS and name != "seed":
            return np.array([getattr(r, name) for r in self.rows])
        values = np.array([getattr(r, name) for r in self.rows],
                          dtype=np.float64)
        return values

    def select(self, predicate) -> "MetricTable":
        return MetricTable([r for r in self.rows if predicate(r)])

    def to_csv(self, path, header_comment: Optional[str] = None) -> None:
        names = [f.name for f in fields(MetricRow)]
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in self.rows:
                rec = asdict(row)
                writer.writerow([
                    rec[n] if n in ("seed", "scheme", "model_kind")
                    else repr(float(rec[n])) for n in names])


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


def paired_discretization_test(table: MetricTable, sides: str = "less"
                               ) -> DiscretizationTestResult:
    """Test whether thresholding worsens the absolute treatment effect bias.

    Runs pair the soft and discretized |TEB| of the same model, so this is a
    paired t-test on the differences soft - hard, by default with the
    one-sided alternative mean < 0 (discretization hurts). Constant
    differences yield a degenerate-flagged result.
    """
    if len(table) < 2:
        raise EstimationError(
            f"discretization test requires at least 2 rows, got {len(table)}")
    soft = table.column("abs_teb_full")
    hard = table.column("abs_teb_full_discretized")
    direction = ("hard worse" if soft.mean() < hard.mean()
                 else "soft worse" if soft.mean() > hard.mean() else "equal")
    res = t_test(soft - hard, mu0=0.0, sides=sides)
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


@dataclass(frozen=True)
class SpearmanMatrix:
    columns: tuple
    values: np.ndarray
    undefined: tuple = ()

    def to_csv(self, path, header_comment: Optional[str] = None) -> None:
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["metric"] + list(self.columns))
            for name, row in zip(self.columns, self.values):
                writer.writerow([name] + [repr(float(v)) for v in row])


def spearman_matrix(table: MetricTable,
                    columns: Sequence[str] = METRIC_COLUMNS) -> SpearmanMatrix:
    """Pairwise Spearman matrix over the selected metric columns.

    Constant columns get NaN off-diagonal entries and are listed in
    ``undefined``; the diagonal is exactly 1 regardless.
    """
    if len(table) < 3:
        raise EstimationError(
            f"correlation matrix requires at least 3 rows, got {len(table)}")
    data = {}
    for name in columns:
        col = table.column(name)
        if not np.isfinite(col).all():
            raise EstimationError(f"column {name!r} is not fully populated")
        data[name] = rankdata(col)
    k = len(columns)
    values = np.eye(k)
    undefined = [name for name in columns if data[name].std() == 0.0]
    for i in range(k):
        for j in range(i + 1, k):
            ci, cj = columns[i], columns[j]
            if ci in undefined or cj in undefined:
                r = math.nan
            else:
                r = float(np.corrcoef(data[ci], data[cj])[0, 1])
            values[i, j] = values[j, i] = r
    return SpearmanMatrix(columns=tuple(columns), values=values,
                          undefined=tuple(undefined))


# --------------------------------------------------------------------------
# Gaussian Frechet distance

EIGEN_CLAMP_REL = 1e-8   # negatives beyond -rel * max-eigenvalue are an error


def frechet_distance(features_a, features_b, normalize: bool = False) -> float:
    """Frechet distance between the Gaussians fitted to two feature sets:

        ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2))

    with sample means and covariances (ddof=1). The matrix square root is
    taken by symmetric eigendecomposition of sqrt(S_a) S_b sqrt(S_a); tiny
    negative eigenvalues from numerical drift are clamped to zero, larger
    ones raise. ``normalize`` standardizes every dimension by the pooled
    mean and standard deviation first.
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
    if normalize:
        pooled = np.concatenate([a, b], axis=0)
        mu = pooled.mean(axis=0)
        sd = pooled.std(axis=0, ddof=1)
        sd[sd == 0.0] = 1.0
        a = (a - mu) / sd
        b = (b - mu) / sd
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
