import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import rctbias as rb
from rctbias import (DomainError, EstimationError, frechet_distance,
                     paired_discretization_test, spearman, spearman_matrix,
                     t_test, teb_report, two_sample_t_test)
from rctbias import metrics as metrics_mod

# oracle tests: fixed example sequences, so a tier-1 run is reproducible
oracle = settings(deadline=None, derandomize=True, max_examples=150)
SCIPY_SIDES = {"two": "two-sided", "greater": "greater", "less": "less"}
values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
samples = st.lists(values, min_size=2, max_size=40)
# values with many ties, some of them close together, or any value above
tied = st.one_of(st.sampled_from([-1.0, 0.0, 1e-9, 0.25, 2.0]), values)
# ties, equal signed zeros and infinities, or any value above
rankable = st.one_of(st.sampled_from([-math.inf, -0.0, 0.0, 1e-9, 2.0,
                                      math.inf]), values)


def has_spread(sample):
    """Excludes degenerate samples: spread far above rounding noise."""
    sample = np.asarray(sample)
    return sample.std() > 1e-6 * (1.0 + np.abs(sample).max())


def rational_teb(scores, labels, treatments):
    """Exact-rational recomputation of the bias decomposition from the
    definition (per-arm mean residuals). Floats convert losslessly."""
    residuals = {0: [], 1: []}
    for f, y, t in zip(scores, labels, treatments):
        residuals[int(t)].append(Fraction(float(f)) - Fraction(int(y)))
    bias = {t: sum(vals, Fraction(0)) / len(vals)
            for t, vals in residuals.items()}
    return bias[1] - bias[0]


def exact_t_sample(t_value, n):
    """A sample whose one-sample t statistic against 0 is exactly t_value."""
    base = np.tile([1.0, -1.0], n // 2)
    if n % 2:
        base = np.concatenate([base, [0.0]])
    base = base / base.std(ddof=1)
    return base + t_value / math.sqrt(n)


class TestEmpiricalAd:
    # a TEB report's EADs: mean(v | t=1) - mean(v | t=0) of the labels
    # (ead_truth) and of the scores (ead_soft)
    def test_saturated(self):
        labels = [1, 1, 0, 0]
        assert teb_report(labels, labels, [1, 1, 0, 0]).ead_truth == 1.0

    def test_identical_groups(self):
        report = teb_report([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0], [1, 1, 0, 0])
        assert report.ead_soft == 0.0 and report.ead_truth == 0.0

    def test_hand_arithmetic(self):
        report = teb_report([0.9, 0.7, 0.2, 0.4], [1, 0, 1, 0], [1, 1, 0, 0])
        assert report.ead_soft == pytest.approx(0.5, abs=1e-15)

    def test_empty_group(self):
        with pytest.raises(EstimationError):
            teb_report([1.0, 0.0], [1, 0], [1, 1])


class TestTebReport:
    def test_perfect_scores_have_zero_bias(self):
        labels = np.array([1, 0, 1, 0, 1, 0])
        t = np.array([1, 1, 1, 0, 0, 0])
        report = teb_report(labels.astype(float), labels, t)
        assert report.teb_soft == 0.0
        assert report.teb_hard == 0.0

    def test_worst_case_construction_value(self):
        t = np.array([1] * 20 + [0] * 80)
        y = np.array([0] * 10 + [1] * 10 + [0] * 40 + [1] * 40)
        ds = rb.Dataset(w=np.zeros(100), t=t, x=np.zeros(100), y=y,
                        s=np.ones(100, dtype=np.int8))
        preds = rb.worst_case_predictor(ds, epsilon=0.05)
        report = teb_report(preds.astype(float), y, t)
        assert report.teb_hard == pytest.approx(0.25, abs=1e-15)
        assert abs(float(rational_teb(preds, y, t))) == \
            pytest.approx(0.25, abs=1e-15)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            t = rng.integers(0, 2, n)
            if t.sum() in (0, n):
                continue
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            report = teb_report(scores, labels, t)
            assert report.teb_soft == pytest.approx(
                report.ead_soft - report.ead_truth, abs=1e-12)

    def test_matches_rational_recomputation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            t = rng.integers(0, 2, n)
            if t.sum() in (0, n):
                continue
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            report = teb_report(scores, labels, t)
            assert abs(report.teb_soft
                       - float(rational_teb(scores, labels, t))) < 1e-12

    def test_hard_bias_respects_worst_case_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            t = rng.integers(0, 2, n)
            if t.sum() in (0, n):
                continue
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            report = teb_report(scores, labels, t, threshold=0.5)
            hard = rb.discretize(scores)
            eps_hat = float((hard != labels).mean())
            min_share = min(t.mean(), 1 - t.mean())
            assert abs(report.teb_hard) <= eps_hat / min_share + 1e-12

    def test_trained_scorer_shows_discretization_gap(self):
        # soft scores are nearly unbiased; thresholding shifts the estimate
        # by the analytic gap (~ +0.042)
        ds = rb.sample_rct(rb.ScmConfig(0.5, 1.0, 100000, seed=11))
        pred = rb.train(ds, rb.TrainConfig("logistic", learning_rate=0.05,
                                           epochs=10, batch_size=256, seed=11))
        scores = rb.predict_soft(pred, ds.x)
        report = teb_report(scores, ds.y, ds.t,
                            reference_ate=rb.analytic_ad(1.0))
        assert abs(report.teb_soft) < abs(report.teb_hard)
        assert report.teb_hard == pytest.approx(0.042, abs=0.01)

    def test_zero_reference_flags_terb_undefined(self):
        labels = np.array([1, 0, 1, 0])
        report = teb_report(np.array([0.9, 0.1, 0.8, 0.2]), labels,
                            np.array([1, 1, 0, 0]), reference_ate=0.0)
        assert report.terb_soft is None and report.terb_hard is None

    def test_provenance_validation(self):
        # an omitted reference ATE is the empirical truth
        report = teb_report(np.array([0.9, 0.9, 0.2, 0.4]),
                            np.array([1, 1, 0, 1]), np.array([1, 1, 0, 0]))
        assert report.ead_truth == 0.5
        assert report.terb_soft == pytest.approx(report.teb_soft / 0.5,
                                                 abs=1e-15)
        assert report.terb_hard == report.teb_hard / 0.5 == 1.0


class TestTTest:
    def test_mean_at_null(self):
        res = t_test([1.0, 2.0, 3.0], mu0=2.0)
        assert res.t == 0.0 and res.p == 1.0 and res.df == 2

    def test_table_value(self):
        # t = 1.607 on 99 degrees of freedom: two-sided p quoted as 0.111
        res = t_test(exact_t_sample(1.607, 100), mu0=0.0)
        assert res.t == pytest.approx(1.607, abs=1e-9)
        assert res.df == 99
        assert res.p == pytest.approx(0.111, abs=0.002)

    def test_normal_limit(self):
        # huge df: two-sided p of t=1.96 approaches 2*(1 - phi(1.96))
        res = t_test(exact_t_sample(1.96, 1_000_001), mu0=0.0)
        assert res.p == pytest.approx(2 * (1 - rb.normal_cdf(1.96)), abs=2e-4)
        assert res.p == pytest.approx(0.050, abs=2e-4)

    def test_zero_variance_off_null_is_degenerate(self):
        res = t_test([0.5, 0.5, 0.5], mu0=0.0)
        assert res.degenerate and math.isnan(res.t)

    def test_zero_variance_on_null_is_neutral(self):
        res = t_test([0.5, 0.5, 0.5], mu0=0.5)
        assert not res.degenerate
        assert res.t == 0.0 and res.p == 1.0

    def test_one_sided_directions(self):
        sample = exact_t_sample(2.0, 50)
        up = t_test(sample, sides="greater")
        down = t_test(sample, sides="less")
        assert up.p < 0.05 < down.p
        assert up.p + down.p == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(0.3, 1.2, size=40)
        base = t_test(sample, mu0=0.1)
        for a, b in ((2.5, -7.0), (0.03, 100.0)):
            scaled = t_test(a * sample + b, mu0=a * 0.1 + b)
            assert scaled.t == pytest.approx(base.t, rel=1e-9)
            assert scaled.p == pytest.approx(base.p, rel=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(EstimationError):
            t_test([1.0])

    @pytest.mark.parametrize("sides", SCIPY_SIDES)
    @oracle
    @given(sample=samples, mu0=values)
    def test_matches_scipy(self, sides, sample, mu0):
        assume(has_spread(sample))
        res = t_test(sample, mu0=mu0, sides=sides)
        ref = stats.ttest_1samp(sample, mu0, alternative=SCIPY_SIDES[sides])
        assert not res.degenerate
        assert res.t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert res.p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)
        assert res.df == ref.df


class TestPairedDiscretizationTest:
    def test_identical_columns_are_neutral(self):
        values = np.linspace(0.01, 0.2, 20)
        res = paired_discretization_test(values, values)
        assert not res.degenerate
        assert res.t == 0.0
        assert res.p == 0.5
        assert res.direction == "equal"

    def test_constant_offset_is_degenerate(self):
        soft = np.linspace(0.01, 0.2, 50)
        res = paired_discretization_test(soft, soft + 0.1)
        assert res.degenerate
        assert res.direction == "hard worse"

    def test_known_shift_is_detected(self):
        # paired differences built as N(-0.05, 0.01^2): the expected t is
        # about -0.05 / (0.01 / 10) = -50, so p is far below 1e-6
        rng = np.random.default_rng(4)
        soft = rng.uniform(0.05, 0.3, size=100)
        hard = soft + rng.normal(0.05, 0.01, size=100)
        res = paired_discretization_test(soft, hard)
        assert res.direction == "hard worse"
        assert res.p < 1e-6

    def test_requires_rows(self):
        with pytest.raises(EstimationError):
            paired_discretization_test([0.1], [0.2])
        with pytest.raises(EstimationError, match="equal-length"):
            paired_discretization_test([0.1, 0.2, 0.3], [0.2, 0.3])


class TestTwoSampleTTest:
    def test_detects_shift(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.5, 0.1, 50)
        b = rng.normal(0.3, 0.1, 50)
        assert two_sample_t_test(a, b, sides="greater").p < 1e-6

    def test_equal_constants_neutral(self):
        res = two_sample_t_test([1.0, 1.0], [1.0, 1.0])
        assert res.t == 0.0 and not res.degenerate

    def test_constant_offset_is_degenerate(self):
        res = two_sample_t_test([1.0, 1.0], [0.5, 0.5])
        assert res.degenerate and math.isnan(res.t)
        assert res.df == 2

    @pytest.mark.parametrize("sides", SCIPY_SIDES)
    @oracle
    @given(a=samples, b=samples)
    def test_matches_scipy_welch(self, sides, a, b):
        assume(has_spread(a) and has_spread(b))
        res = two_sample_t_test(a, b, sides=sides)
        ref = stats.ttest_ind(a, b, equal_var=False,
                              alternative=SCIPY_SIDES[sides])
        assert not res.degenerate
        assert res.t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert res.p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)
        assert res.df == pytest.approx(ref.df, rel=1e-9)


class TestSpearman:
    def test_self_correlation(self):
        x = np.random.default_rng(7).normal(size=20)
        assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        x = np.random.default_rng(8).normal(size=20)
        assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_example(self):
        assert spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == \
            pytest.approx(0.8, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x ** 3, y) == pytest.approx(base, abs=1e-12)

    def test_matrix_diagonal_and_symmetry(self):
        rng = np.random.default_rng(10)
        result = spearman_matrix({"abs_teb_full": rng.random(10),
                                  "abs_teb_full_discretized": rng.random(10),
                                  "bce_val": np.full(10, 0.1)})
        assert result["columns"] == ["abs_teb_full",
                                     "abs_teb_full_discretized", "bce_val"]
        matrix = np.array(result["matrix"])
        assert np.array_equal(np.diag(matrix), np.ones(3))
        assert np.array_equal(matrix, matrix.T, equal_nan=True)
        # a constant column is flagged and has NaN off the diagonal
        assert result["undefined"] == ["bce_val"]
        assert math.isnan(matrix[0, 2])
        assert not math.isnan(matrix[0, 1])

    @oracle
    @given(st.lists(st.tuples(values, values), min_size=3, max_size=40))
    def test_matches_scipy(self, pairs):
        # ties are kept: both sides rank them by their average rank
        x, y = (np.array(column) for column in zip(*pairs))
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        assert spearman(x, y) == pytest.approx(
            stats.spearmanr(x, y).statistic, abs=1e-12)

    @oracle
    @given(st.lists(st.tuples(tied, tied, tied), min_size=3, max_size=40))
    def test_matrix_matches_scipy(self, rows):
        columns = dict(zip("abc", (np.array(column) for column in zip(*rows))))
        result = spearman_matrix(columns)
        matrix = np.array(result["matrix"])
        constant = [name for name, column in columns.items()
                    if np.ptp(column) == 0]
        assert result["undefined"] == constant
        for i, j in ((0, 1), (0, 2), (1, 2)):
            x, y = "abc"[i], "abc"[j]
            if x in constant or y in constant:
                assert math.isnan(matrix[i, j])
            else:
                assert matrix[i, j] == pytest.approx(
                    stats.spearmanr(columns[x], columns[y]).statistic,
                    abs=1e-12)

    @oracle
    @given(st.lists(rankable, min_size=1, max_size=40))
    def test_average_ranks_match_scipy_bit_for_bit(self, sample):
        a = np.array(sample)
        ranks, expected = metrics_mod._average_ranks(a), stats.rankdata(a)
        assert ranks.dtype == expected.dtype
        assert ranks.tobytes() == expected.tobytes()

    def test_any_nan_gives_nan_ranks_and_correlation(self):
        x = np.array([0.3, math.nan, 0.1, 0.3])
        assert np.isnan(metrics_mod._average_ranks(x)).all()
        assert np.isnan(stats.rankdata(x)).all()
        assert math.isnan(spearman(x, [1.0, 2.0, 3.0, 4.0]))

    def test_requires_three_rows(self):
        with pytest.raises(EstimationError):
            spearman_matrix({"abs_teb_full": [0.1, 0.2],
                             "abs_teb_full_discretized": [0.1, 0.2]})
        with pytest.raises(EstimationError, match="equal-length"):
            spearman_matrix({"abs_teb_full": [0.1, 0.2, 0.3],
                             "abs_teb_full_discretized": [0.1, 0.2]})


class TestFrechetDistance:
    def test_identical_sets(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(100, 4))
        assert frechet_distance(a, a) <= 1e-8

    def test_one_dimensional_closed_form(self):
        # sample stats: a has mean 0, sd 1; b has mean 3, sd 2, so the
        # distance is (0-3)^2 + (1-2)^2 = 10
        a = np.array([[-1.0], [0.0], [1.0]])
        b = np.array([[1.0], [3.0], [5.0]])
        assert frechet_distance(a, b) == pytest.approx(10.0, abs=1e-8)

    def test_translation_shifts_by_squared_norm(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(200, 3))
        delta = np.array([1.5, -2.0, 0.5])
        base = frechet_distance(a, a)
        shifted = frechet_distance(a, a + delta)
        assert shifted - base == pytest.approx(float((delta ** 2).sum()),
                                               abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(50, 5))
        b = rng.normal(1.0, 2.0, size=(80, 5))
        assert frechet_distance(a, b) == pytest.approx(
            frechet_distance(b, a), rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            frechet_distance(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(EstimationError, match="eigenvalue"):
            metrics_mod._clamped_eigh(np.diag([1.0, -1.0]))


def test_importing_the_program_loads_no_scipy_stats():
    # scipy.stats alone costs about a second of every command's start-up;
    # the tests may still use it as an oracle
    env = {**os.environ, "PYTHONPATH": str(Path(rb.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rctbias, rctbias.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
