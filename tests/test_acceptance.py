"""Acceptance suite: every release criterion, one test each, with a
printed PASS/FAIL line per criterion."""

import contextlib
import hashlib

import numpy as np
import pytest

import rctbias as rb
from rctbias import harness, models
from rctbias.harness import (CONVERGENCE_EXPERIMENT, MNIST_EXPERIMENT,
                             RunConfig)

AD_SOFT = 0.21814856917461345     # phi(1/sqrt(3)) - 1/2
AD_HARD = 0.26024993890652326     # phi(1/sqrt(2)) - 1/2


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def convergence_sweep():
    config = RunConfig(experiment=CONVERGENCE_EXPERIMENT,
                       seeds=tuple(range(20)),
                       sample_sizes=(1000, 10000, 100000))
    report = harness.run_study(config)
    assert not report.errors
    return report


@pytest.fixture(scope="module")
def mnist_sweep(digit_archive_paths):
    # reference training settings (lr 0.001, batch 64, 6 epochs); 2-epoch
    # training is permitted for speed but leaves both schemes dominated by
    # undertraining noise rather than annotation bias
    images, labels = digit_archive_paths
    config = RunConfig(experiment=MNIST_EXPERIMENT,
                       seeds=tuple(range(20)),
                       schemes=("random_few", "biased_few"),
                       mnist_images=images, mnist_labels=labels,
                       epochs=6)
    report = harness.run_study(config, workers=2)
    assert not report.errors
    return report


@pytest.mark.slow
def test_criterion_1_discretization_bias_convergence(convergence_sweep):
    with criterion(1, "trained-scorer EADs converge to their two distinct "
                      "analytic limits, gap ~0.042"):
        agg = convergence_sweep.aggregates["per_n"]["100000"]
        assert agg["runs"] == 20
        assert abs(agg["ead_soft_mean"] - AD_SOFT) < 0.01
        assert abs(agg["ead_hard_mean"] - AD_HARD) < 0.01
        assert abs(agg["gap_mean"] - 0.042) < 0.01


def test_criterion_2_bound_tightness_and_validity():
    with criterion(2, "worst-case construction attains the accuracy bound "
                      "exactly; no prediction vector violates it"):
        # (a) attainment on randomized small datasets
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 100:
            n = int(rng.integers(6, 50))
            t = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int8)
            n1 = int(t.sum())
            if n1 in (0, n):
                continue
            y = rng.integers(0, 2, n).astype(np.int8)
            minority = 1 if n1 <= n - n1 else 0
            eligible = int(((t == minority) & (y == 0)).sum())
            k = int(rng.integers(0, eligible + 1))
            ds = rb.Dataset(w=np.zeros(n), t=t, x=np.zeros(n), y=y,
                            s=np.ones(n, dtype=np.int8))
            preds = rb.worst_case_predictor(ds, epsilon=k / n)
            report = rb.teb_report(preds.astype(float), y, t)
            n_minority = int((t == minority).sum())
            assert abs(abs(report.teb_hard) - k / n_minority) < 1e-12
            checked += 1

        # (b) exhaustive enumeration: every hard prediction vector obeys
        # |TEB| <= empirical error rate / min group share
        for seed, n in ((0, 8), (1, 10), (2, 12), (3, 12)):
            local = np.random.default_rng(seed)
            t = local.integers(0, 2, n).astype(np.int8)
            if t.sum() in (0, n):
                t[0] = 1 - t[0]
            y = local.integers(0, 2, n).astype(np.int8)
            n1 = int(t.sum())
            n0 = n - n1
            weights = np.where(t == 1, 1.0 / n1, -1.0 / n0)
            all_preds = ((np.arange(2 ** n)[:, None]
                          >> np.arange(n)) & 1).astype(np.int8)
            teb = (all_preds - y) @ weights
            eps_hat = (all_preds != y).mean(axis=1)
            bound = eps_hat * n / min(n1, n0)
            assert (np.abs(teb) <= bound + 1e-12).all()


@pytest.mark.slow
def test_criterion_3_hard_estimator_converges_to_wrong_target(
        convergence_sweep):
    with criterion(3, "thresholded estimator converges, but to the "
                      "discretized limit, staying ~0.042 off the truth"):
        per_n = convergence_sweep.aggregates["per_n"]
        dev_wrong = [per_n[str(n)]["abs_dev_hard_from_discretized_limit"]
                     for n in (1000, 10000, 100000)]
        dev_truth = [per_n[str(n)]["abs_dev_hard_from_true_ad"]
                     for n in (1000, 10000, 100000)]
        assert dev_wrong[0] > dev_wrong[1] > dev_wrong[2]
        assert dev_wrong[2] < 0.012
        assert abs(dev_truth[2] - 0.042) < 0.012


def test_criterion_4_designed_population_control(digit_archive_paths):
    with criterion(4, "population table is exact and generated data "
                      "reproduces the designed effects"):
        spec = rb.build_population(3)
        assert spec.table == {(1, 1): 0.8, (0, 1): 0.4,
                              (1, 0): 0.7, (0, 0): 0.5}
        assert spec.ate == 0.3

        labels = rb.read_idx(digit_archive_paths[1])
        y = (labels > 3).astype(np.int8)
        ates, cates_white, cates_black = [], [], []
        for seed in range(100):
            b, p = rb.draw_colors(y, spec, seed=seed)
            yf = y.astype(float)
            ates.append(yf[b == 1].mean() - yf[b == 0].mean())
            white = p == 1
            cates_white.append(yf[white & (b == 1)].mean()
                               - yf[white & (b == 0)].mean())
            black = ~white
            cates_black.append(yf[black & (b == 1)].mean()
                               - yf[black & (b == 0)].mean())
        assert abs(np.mean(ates) - 0.300) < 0.01
        assert abs(np.mean(cates_white) - 0.40) < 0.02
        assert abs(np.mean(cates_black) - 0.20) < 0.02


@pytest.mark.slow
def test_criterion_5_sampling_bias_direction(mnist_sweep):
    with criterion(5, "biased few-shot annotation inflates |TERB| over "
                      "random few-shot, one-sided p < 0.05"):
        entry = mnist_sweep.tests["abs_terb_biased_vs_random"][
            "biased_few_vs_random_few"]
        assert entry["mean_abs_terb_biased"] > entry["mean_abs_terb_random"]
        assert entry["p"] < 0.05


@pytest.mark.slow
def test_criterion_6_model_selection_metric(mnist_sweep):
    with criterion(6, "validation |TEB| tracks full-dataset |TEB| better "
                      "than the accuracy metrics do"):
        sel = mnist_sweep.aggregates["model_selection"]
        assert sel["spearman_absteb_val_vs_full"] > \
            sel["spearman_accuracy_val_vs_full_absteb"]
        assert sel["spearman_absteb_val_vs_full"] > \
            sel["spearman_balanced_accuracy_val_vs_full_absteb"]


def test_criterion_7_statistical_oracles():
    with criterion(7, "statistical primitives reproduce their reference "
                      "values"):
        # one-sample t-test: t=1.607, df=99 -> two-sided p ~ 0.111
        base = np.tile([1.0, -1.0], 50)
        sample = base / base.std(ddof=1) + 1.607 / 10.0
        res = rb.t_test(sample, mu0=0.0)
        assert res.df == 99
        assert abs(res.p - 0.111) < 0.002

        assert abs(rb.analytic_discretized_ad() - 0.2602) < 1e-4

        assert rb.spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == \
            pytest.approx(0.8, abs=1e-12)

        a = np.array([[-1.0], [0.0], [1.0]])   # mean 0, sd 1
        b = np.array([[1.0], [3.0], [5.0]])    # mean 3, sd 2
        assert rb.frechet_distance(a, b) == pytest.approx(10.0, abs=1e-8)
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(60, 6))
        assert rb.frechet_distance(feats, feats) <= 1e-8


def test_criterion_8_infrastructure_properties(tmp_path, digit_archive):
    with criterion(8, "bit-stable reruns, strict IDX parsing, byte-stable "
                      "reports, gradient checks"):
        # bit-identical reruns
        config = rb.ScmConfig(0.5, 1.0, 5000, seed=13)
        a, b = rb.sample_rct(config), rb.sample_rct(config)
        assert all(np.array_equal(getattr(a, c), getattr(b, c))
                   for c in ("w", "t", "x", "y", "s"))
        spec = rb.build_population(3)
        small = rb.MnistArchive(images=digit_archive.images[:512],
                                labels=digit_archive.labels[:512])
        ga = rb.generate(small, spec, seed=3)
        gb = rb.generate(small, spec, seed=3)
        assert np.array_equal(ga.images, gb.images)
        train_config = rb.TrainConfig("convnet", epochs=1, seed=4)
        pa = rb.train(ga.as_rct_dataset(), train_config)
        pb = rb.train(gb.as_rct_dataset(), train_config)
        assert np.array_equal(pa.params, pb.params)

        # IDX parser rejects corruption
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x01\x00\x08\x01\x00\x00\x00\x00")
        with pytest.raises(rb.IdxFormatError):
            rb.read_idx(bad)

        # byte-stable report emission
        report = harness.run_study(RunConfig(
            experiment=CONVERGENCE_EXPERIMENT, seeds=(0,),
            sample_sizes=(1000,)))
        digests = []
        for name in ("one", "two"):
            paths = harness.emit_report(report, tmp_path / name)
            digests.append([hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in paths])
        assert digests[0] == digests[1]

        # gradient checks for every trainable architecture
        rng = np.random.default_rng(88)
        cases = [
            ({"kind": "logistic", "in_dim": 2}, rng.normal(size=(8, 2))),
            ({"kind": "convnet", "height": 28, "width": 28, "channels": 3},
             rng.integers(0, 256, size=(3, 28, 28, 3))),
        ]
        for arch, x in cases:
            y = rng.integers(0, 2, len(x))
            params = models.init_params(arch, seed=1)
            _, grad = models.loss_and_grad(arch, params, x, y,
                                           dtype=np.float64)
            coords = rng.choice(len(params), size=min(40, len(params)),
                                replace=False)
            h = 1e-6
            for i in coords:
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                lu, _ = models.loss_and_grad(arch, up, x, y, np.float64)
                ld, _ = models.loss_and_grad(arch, down, x, y, np.float64)
                fd = (lu - ld) / (2 * h)
                assert abs(fd - grad[i]) / max(1e-8, abs(fd), abs(grad[i])) \
                    < 1e-4
