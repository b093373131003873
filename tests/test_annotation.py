import numpy as np
import pytest

from rctbias import (ConfigurationError, Dataset, SamplingError,
                     SamplingScheme, assign_annotation, validation_indices)


def make_dataset(n, seed=0, n_covariate_values=2):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, n_covariate_values, n).astype(np.float64)
    t = rng.integers(0, 2, n).astype(np.int8)
    x = rng.normal(size=n)
    y = rng.integers(0, 2, n).astype(np.int8)
    return Dataset(w=w, t=t, x=x, y=y, s=np.ones(n, dtype=np.int8))


class TestSamplingScheme:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            SamplingScheme(kind="stratified", n_s=10)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError, match="n_s"):
            SamplingScheme(kind="random", n_s=0)


class TestAssignAnnotation:
    def test_table5_few_shot_counts(self):
        # 1800 annotated of 60000 leaves 58200 unannotated
        ds = make_dataset(60000, seed=1)
        out = assign_annotation(ds, SamplingScheme("random", n_s=1800, seed=0))
        assert out.n_s == 1800
        assert len(out) - out.n_s == 58200

    def test_biased_scheme_annotates_eligible_only(self):
        ds = make_dataset(60000, seed=2)
        scheme = SamplingScheme("covariate_biased", n_s=12000, seed=3)
        out = assign_annotation(ds, scheme)
        assert out.n_s == 12000
        assert (out.w[out.s == 1] == 0).all()
        # the unannotated pool keeps both covariate values
        leftover = out.w[out.s == 0]
        assert (leftover == 0).any() and (leftover == 1).any()

    def test_annotating_everything_is_rejected(self):
        ds = make_dataset(50)
        with pytest.raises(SamplingError, match="smaller than"):
            assign_annotation(ds, SamplingScheme("random", n_s=50))

    def test_insufficient_eligible_reports_count(self):
        ds = make_dataset(100, seed=4)
        eligible = int((ds.w == 0).sum())
        scheme = SamplingScheme("covariate_biased", n_s=eligible + 1, seed=0)
        with pytest.raises(SamplingError, match=str(eligible)):
            assign_annotation(ds, scheme)

    def test_never_alters_other_columns(self):
        ds = make_dataset(500, seed=5)
        out = assign_annotation(ds, SamplingScheme("random", n_s=100, seed=6))
        for col in ("w", "t", "x", "y"):
            assert np.array_equal(getattr(ds, col), getattr(out, col))
        assert ds.s.all()  # input untouched

    def test_deterministic_given_seed(self):
        ds = make_dataset(300, seed=7)
        scheme = SamplingScheme("random", n_s=40, seed=8)
        a = assign_annotation(ds, scheme)
        b = assign_annotation(ds, scheme)
        assert np.array_equal(a.s, b.s)

    def test_random_scheme_is_representative(self):
        # annotated covariate share matches the population share across seeds
        ds = make_dataset(4000, seed=9)
        population_share = ds.w.mean()
        shares = []
        for seed in range(30):
            out = assign_annotation(ds, SamplingScheme("random", n_s=400,
                                                       seed=seed))
            shares.append(out.w[out.s == 1].mean())
        se = np.std(shares, ddof=1) / np.sqrt(len(shares))
        assert abs(np.mean(shares) - population_share) < 4 * se + 1e-3

    def test_biased_scheme_is_degenerate(self):
        # with three settings, only the units whose setting is 0 are eligible
        ds = make_dataset(1000, seed=10, n_covariate_values=3)
        out = assign_annotation(ds, SamplingScheme(
            "covariate_biased", n_s=300, seed=0))
        assert set(np.unique(out.w[out.s == 1])) == {0.0}


class TestValidationIndices:
    def test_drawn_from_unannotated_pool_with_default_size(self):
        ds = make_dataset(1000, seed=12)
        ds = assign_annotation(ds, SamplingScheme("random", n_s=200, seed=0))
        idx = validation_indices(ds, seed=1)
        assert len(idx) == 200
        assert (ds.s[idx] == 0).all()

    def test_deterministic(self):
        ds = make_dataset(500, seed=13)
        ds = assign_annotation(ds, SamplingScheme("random", n_s=100, seed=0))
        assert np.array_equal(validation_indices(ds, seed=5),
                              validation_indices(ds, seed=5))

    def test_pool_too_small(self):
        ds = make_dataset(100, seed=14)
        ds = assign_annotation(ds, SamplingScheme("random", n_s=80, seed=0))
        with pytest.raises(SamplingError, match="20"):
            validation_indices(ds, size=30)
