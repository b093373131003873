import numpy as np
import pytest
from scipy.special import ndtri

from rctbias import (ConfigurationError, Dataset, DomainError, ScmConfig,
                     analytic_ad, oracle_conditional_mean, sample_rct)

# Expected conditional means computed with an independent high-precision
# normal-CDF oracle (mpmath.ncdf; see test_analytic.py for the oracle check):
#   phi(1/sqrt(3)) = 0.7181485691746134
#   phi(1/sqrt(2)) = 0.7602499389065233
#   phi(1)         = 0.8413447460685429
PHI_1_SQRT3 = 0.7181485691746134
PHI_1_SQRT2 = 0.7602499389065233
PHI_1 = 0.8413447460685429


@pytest.fixture(scope="module")
def big_dataset():
    return sample_rct(ScmConfig(p_t=0.5, sigma2_y=1.0, n=10 ** 6, seed=0))


class TestScmConfig:
    def test_rejects_p_t_out_of_range(self):
        with pytest.raises(ConfigurationError, match="p_t"):
            ScmConfig(p_t=0.0, sigma2_y=1.0, n=10)
        with pytest.raises(ConfigurationError, match="p_t"):
            ScmConfig(p_t=1.0, sigma2_y=1.0, n=10)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ConfigurationError, match="sigma2_y"):
            ScmConfig(p_t=0.5, sigma2_y=0.0, n=10)

    def test_rejects_bad_n_and_seed(self):
        with pytest.raises(ConfigurationError, match="n must"):
            ScmConfig(p_t=0.5, sigma2_y=1.0, n=0)
        with pytest.raises(ConfigurationError, match="seed"):
            ScmConfig(p_t=0.5, sigma2_y=1.0, n=10, seed=-1)


class TestSampleRct:
    def test_treatment_share_matches_bernoulli(self, big_dataset):
        assert abs(big_dataset.t.mean() - 0.5) < 0.002

    def test_treated_outcome_mean_matches_closed_form(self, big_dataset):
        mean_y1 = big_dataset.y[big_dataset.t == 1].mean()
        assert abs(mean_y1 - PHI_1_SQRT3) < 0.002

    def test_control_outcome_mean_is_half(self, big_dataset):
        mean_y0 = big_dataset.y[big_dataset.t == 0].mean()
        assert abs(mean_y0 - 0.5) < 0.002

    def test_all_flags_start_annotated(self, big_dataset):
        assert big_dataset.s.all()

    def test_deterministic_per_seed(self):
        config = ScmConfig(p_t=0.3, sigma2_y=2.0, n=5000, seed=42)
        a = sample_rct(config)
        b = sample_rct(config)
        for col in ("w", "t", "x", "y", "s"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    @pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1])
    @pytest.mark.parametrize("sigma2_y", [1.0, 0.3])
    def test_equals_the_out_of_place_formula(self, seed, sigma2_y):
        # sample_rct clamps and transforms its uniforms in place; this is
        # the same draw with a new array at every operation
        n, p_t = 20000, 0.4
        rng = np.random.Generator(np.random.Philox(key=seed))
        u = np.clip(rng.random((4, n)), 2.0 ** -53, None)
        t = (u[0] < p_t).astype(np.int8)
        w = ndtri(u[1])
        x = t + w + ndtri(u[2])
        y = ((x + np.sqrt(sigma2_y) * ndtri(u[3])) >= 0.0).astype(np.int8)
        got = sample_rct(ScmConfig(p_t=p_t, sigma2_y=sigma2_y, n=n,
                                   seed=seed))
        for name, want in (("w", w), ("t", t), ("x", x), ("y", y)):
            col = getattr(got, name)
            assert col.dtype == want.dtype
            assert col.tobytes() == want.tobytes(), name

    def test_distinct_seeds_differ(self):
        a = sample_rct(ScmConfig(0.5, 1.0, 1000, seed=1))
        b = sample_rct(ScmConfig(0.5, 1.0, 1000, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_empirical_ad_matches_interventional_difference(self, big_dataset):
        m1, m0 = 0.5 + analytic_ad(1.0), 0.5
        y, t = big_dataset.y, big_dataset.t
        ead = y[t == 1].mean() - y[t == 0].mean()
        n1 = (t == 1).sum()
        n0 = len(t) - n1
        se = np.sqrt(y[t == 1].var() / n1 + y[t == 0].var() / n0)
        assert abs(ead - (m1 - m0)) < 3 * se

    def test_oracle_mean_averages_to_interventional_mean(self, big_dataset):
        m1, m0 = 0.5 + analytic_ad(1.0), 0.5
        x, t = big_dataset.x, big_dataset.t
        for arm, target in ((1, m1), (0, m0)):
            scores = oracle_conditional_mean(x[t == arm], 1.0)
            se = scores.std() / np.sqrt(len(scores)) + 1e-4
            assert abs(scores.mean() - target) < 4 * se


class TestOracleConditionalMean:
    def test_symmetry_point(self):
        assert oracle_conditional_mean(0.0, 1.0) == 0.5

    def test_unit_point(self):
        assert abs(oracle_conditional_mean(1.0, 1.0) - PHI_1) < 1e-12

    def test_reflection(self):
        assert abs(oracle_conditional_mean(-1.0, 1.0) - (1 - PHI_1)) < 1e-12

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            oracle_conditional_mean(0.0, 0.0)


class TestInterventionalMeans:
    """E[Y | do(T=1)] = 0.5 + analytic_ad(sigma2_y); E[Y | do(T=0)] = 0.5."""

    def test_unit_variance(self):
        assert abs(0.5 + analytic_ad(1.0) - PHI_1_SQRT3) < 1e-12

    def test_infinite_noise_limit(self):
        assert abs(0.5 + analytic_ad(10 ** 6) - 0.5) < 1e-3

    def test_vanishing_noise_limit(self):
        assert abs(0.5 + analytic_ad(1e-4) - PHI_1_SQRT2) < 1e-3


class TestDataset:
    def test_partitions_cover_disjointly(self):
        ds = sample_rct(ScmConfig(0.5, 1.0, 100, seed=3))
        s = np.zeros(100, dtype=np.int8)
        s[:30] = 1
        ds = ds.with_annotation(s)
        assert ds.n_s == len(ds.annotated) == 30
        assert np.array_equal(ds.annotated.x, ds.x[:30])

    def test_rejects_nonbinary_columns(self):
        with pytest.raises(ConfigurationError, match="binary"):
            Dataset(w=[0.0, 1.0], t=[0, 2], x=[0.0, 1.0], y=[0, 1], s=[1, 1])

    def test_nonbinary_message_lists_the_values_found(self):
        with pytest.raises(ConfigurationError,
                           match=r"column y must be binary, found values "
                                 r"\[-1  0  1  2  5\]$"):
            Dataset(w=np.zeros(7), t=np.ones(7, dtype=np.int8),
                    x=np.zeros(7), y=np.array([5, 1, 0, 2, 9, -1, 1]),
                    s=np.ones(7, dtype=np.int8))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="length"):
            Dataset(w=[0.0, 1.0], t=[0], x=[0.0, 1.0], y=[0, 1], s=[1, 1])

    def test_columns_are_read_only(self):
        ds = sample_rct(ScmConfig(0.5, 1.0, 10, seed=5))
        with pytest.raises(ValueError):
            ds.y[0] = 1

    def test_columns_are_views_that_leave_the_caller_writeable(self):
        x = np.arange(6.0)
        cols = {"w": np.zeros(6), "t": np.ones(6, dtype=np.int8), "x": x,
                "y": np.ones(6, dtype=np.int8), "s": np.ones(6, dtype=np.int8)}
        ds = Dataset(**cols)
        for name, col in cols.items():
            assert col.flags.writeable
            assert not getattr(ds, name).flags.writeable
            assert np.shares_memory(getattr(ds, name), col)
        x[0] = 7.0
        assert ds.x[0] == 7.0
