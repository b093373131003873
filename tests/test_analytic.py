import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from rctbias import (Dataset, DomainError, InfeasibleError, analytic_ad,
                     analytic_discretized_ad, teb_upper_bound,
                     worst_case_predictor)


def reference_normal_cdf(z: float) -> float:
    """Independent oracle: 50-digit normal CDF via mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.ncdf(z))


def brute_force_teb(predictions, labels, treatments) -> Fraction:
    """Treatment effect bias recomputed from the definition in exact
    rational arithmetic: per-arm mean residual difference."""
    groups = {0: [], 1: []}
    for f, y, t in zip(predictions, labels, treatments):
        groups[int(t)].append(Fraction(int(f)) - Fraction(int(y)))
    bias = {t: sum(vals, Fraction(0)) / len(vals)
            for t, vals in groups.items()}
    return bias[1] - bias[0]


def toy_dataset(t, y):
    t = np.asarray(t)
    y = np.asarray(y)
    return Dataset(w=np.zeros(len(t)), t=t, x=np.zeros(len(t)), y=y,
                   s=np.ones(len(t), dtype=np.int8))


class TestNormalCdf:
    """The normal CDF the analytic references are built on: scipy's ndtr."""

    def test_paper_anchor_value(self):
        # the thresholded-oracle success rate, quoted as ~0.76
        z = 1 / math.sqrt(2)
        assert abs(ndtr(z) - 0.7602499389065233) < 1e-12
        assert abs(ndtr(z) - reference_normal_cdf(z)) < 1e-12


class TestAnalyticAd:
    def test_unit_variance(self):
        assert abs(analytic_ad(1.0) - 0.21814856917461345) < 1e-12

    def test_pure_noise_limit(self):
        assert abs(analytic_ad(1e8)) < 1e-4

    def test_variance_two(self):
        assert abs(analytic_ad(2.0) - 0.19146246127401312) < 1e-12

    def test_against_high_precision_oracle(self):
        for sigma2_y in np.geomspace(1e-6, 1e6, 61):
            z = 1.0 / math.sqrt(2.0 + sigma2_y)
            assert abs(analytic_ad(sigma2_y) + 0.5 - reference_normal_cdf(z)) \
                < 1e-12

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            analytic_ad(0.0)
        with pytest.raises(DomainError):
            analytic_ad(-1.0)


class TestAnalyticDiscretizedAd:
    def test_value(self):
        # the thresholded-oracle success rate, quoted as ~0.76, less 0.5
        assert abs(analytic_discretized_ad() - 0.26024993890652326) < 1e-12

    def test_gap_at_unit_variance(self):
        gap = analytic_discretized_ad() - analytic_ad(1.0)
        assert abs(gap - 0.042) < 1e-3

    def test_gap_vanishes_with_noise(self):
        assert analytic_discretized_ad() - analytic_ad(1e-8) < 1e-4

    def test_gap_positive_and_monotone_in_noise(self):
        gaps = [analytic_discretized_ad() - analytic_ad(v)
                for v in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(g > 0 for g in gaps)
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


class TestTebUpperBound:
    def test_balanced_case(self):
        assert teb_upper_bound(0.05, 0.5) == 0.1

    def test_perfect_accuracy(self):
        assert teb_upper_bound(0.0, 0.3) == 0.0

    def test_unbalanced_case(self):
        assert abs(teb_upper_bound(0.1, 0.25) - 0.4) < 1e-15

    def test_always_at_least_twice_epsilon(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eps = rng.uniform(0, 1)
            p_t = rng.uniform(1e-6, 1 - 1e-6)
            assert teb_upper_bound(eps, p_t) >= 2 * eps - 1e-15

    def test_rejects_invalid_inputs(self):
        with pytest.raises(DomainError):
            teb_upper_bound(-0.1, 0.5)
        with pytest.raises(DomainError):
            teb_upper_bound(0.5, 1.0)


class TestWorstCasePredictor:
    def test_flips_concentrate_in_minority_group(self):
        t = np.array([1] * 20 + [0] * 80)
        y = np.array([0] * 10 + [1] * 10 + [0] * 40 + [1] * 40)
        ds = toy_dataset(t, y)
        preds = worst_case_predictor(ds, epsilon=0.05)
        flipped = np.flatnonzero(preds != y)
        assert len(flipped) == 5
        assert (t[flipped] == 1).all()
        assert (y[flipped] == 0).all() and (preds[flipped] == 1).all()
        teb = brute_force_teb(preds, y, t)
        assert teb == Fraction(5, 20)
        assert float(abs(teb)) == pytest.approx(0.05 / 0.2, abs=1e-15)

    def test_zero_epsilon_copies_labels(self):
        ds = toy_dataset([1, 1, 0, 0], [1, 0, 1, 0])
        preds = worst_case_predictor(ds, epsilon=0.0)
        assert np.array_equal(preds, ds.y)

    def test_attains_bound_on_balanced_ten(self):
        t = np.array([1] * 5 + [0] * 5)
        y = np.array([0, 0, 1, 1, 1, 0, 0, 1, 1, 1])
        preds = worst_case_predictor(toy_dataset(t, y), epsilon=0.2)
        teb = brute_force_teb(preds, y, t)
        assert abs(float(teb)) == pytest.approx(
            teb_upper_bound(0.2, 0.5), abs=1e-15)

    def test_infeasible_epsilon_reports_maximum(self):
        t = np.array([1] * 3 + [0] * 7)
        y = np.array([1, 1, 0, 0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(InfeasibleError, match="maximum attainable"):
            worst_case_predictor(toy_dataset(t, y), epsilon=0.5)

    def test_requires_both_groups(self):
        with pytest.raises(DomainError):
            worst_case_predictor(toy_dataset([1, 1, 1], [0, 1, 0]), 0.1)

    def test_decimal_rate_flip_count(self):
        # 0.3 * 10 is 2.999... in binary; the floor must still mean 3 flips
        t = np.array([1] * 5 + [0] * 5)
        y = np.array([0, 0, 0, 1, 1, 0, 0, 1, 1, 1])
        preds = worst_case_predictor(toy_dataset(t, y), epsilon=0.3)
        assert (preds != y).sum() == 3

    def test_attainment_on_randomized_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(6, 40))
            t = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int8)
            if t.sum() in (0, n):
                continue
            y = rng.integers(0, 2, n).astype(np.int8)
            minority = 1 if t.sum() <= n - t.sum() else 0
            eligible = int(((t == minority) & (y == 0)).sum())
            k = int(rng.integers(0, eligible + 1))
            preds = worst_case_predictor(toy_dataset(t, y), epsilon=k / n)
            n_minority = int((t == minority).sum())
            achieved = abs(brute_force_teb(preds, y, t))
            assert achieved == Fraction(k, n_minority)
