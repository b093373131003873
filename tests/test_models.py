import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import rctbias as rb
from rctbias import (ConfigurationError, Dataset, DomainError, Predictor,
                     ScmConfig, TrainConfig, TrainingError, discretize,
                     evaluate_predictions, oracle_conditional_mean,
                     predict_soft, sample_rct, train)
from rctbias import models

from synthdigits import make_digit_images
from rctbias import mnist


def finite_difference_check(arch, params, x, y, pos_weight, n_coords, seed,
                            h=1e-6):
    """Central-difference gradient check on a random coordinate subset."""
    loss, grad = models.loss_and_grad(arch, params, x, y, pos_weight,
                                      dtype=np.float64)
    assert np.isfinite(loss)
    rng = np.random.default_rng(seed)
    coords = rng.choice(len(params), size=min(n_coords, len(params)),
                        replace=False)
    worst = 0.0
    for i in coords:
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        lu, _ = models.loss_and_grad(arch, up, x, y, pos_weight, np.float64)
        ld, _ = models.loss_and_grad(arch, down, x, y, pos_weight, np.float64)
        fd = (lu - ld) / (2 * h)
        rel = abs(fd - grad[i]) / max(1e-8, abs(fd), abs(grad[i]))
        worst = max(worst, rel)
    return worst


def scalar_dataset(x, y):
    n = len(x)
    return Dataset(w=np.zeros(n), t=np.ones(n, dtype=np.int8), x=np.asarray(x),
                   y=np.asarray(y, dtype=np.int8), s=np.ones(n, dtype=np.int8))


def per_step_train(d_s, config):
    """``train`` as a loop that computes each step's loss and checks it for
    divergence at once, with an Adam update that allocates at every
    operation: the reference the one-pass epoch loss and the preallocated
    update must match bit for bit."""
    arch = models._architecture_for(config, np.asarray(d_s.x))
    dtype = models._compute_dtype(arch)
    x = models.prepare_inputs(arch, d_s.x, dtype)
    y = np.asarray(d_s.y, dtype=dtype)
    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    params = models.init_params(arch, init_seq).astype(dtype)
    shuffle_rng = np.random.Generator(np.random.Philox(shuffle_seq))
    p = models.unpack_params(params, arch)
    n = len(y)
    sub = models.SUB_BATCH if arch["kind"] == "convnet" else config.batch_size
    flats = [np.zeros_like(params)
             for _ in range(-(-min(config.batch_size, n) // sub))]
    grad_flat = flats[0]
    part_grads = [models.unpack_params(flat, arch) for flat in flats]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0
    trace = []

    def score_part(task):
        i, rows, batch = task
        prob, cache = models._forward(arch, p, x[rows], want_cache=True)
        models._backward(arch, p, cache, y[rows], 1.0, batch, part_grads[i])
        return prob

    with np.errstate(over="ignore", invalid="ignore"), \
            models._scoring_threads(arch, len(flats)) as run:
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(n)
            epoch_losses = []
            for lo in range(0, n, config.batch_size):
                sl = order[lo:lo + config.batch_size]
                if len(sl) <= sub:
                    prob = score_part((0, sl, len(sl)))
                else:
                    tasks = [(i, sl[j:j + sub], len(sl))
                             for i, j in enumerate(range(0, len(sl), sub))]
                    prob = np.concatenate(run(score_part, tasks))
                    for flat in flats[1:len(tasks)]:
                        grad_flat += flat
                loss = models.bce(prob, y[sl])
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"training diverged (non-finite loss) at epoch {epoch}")
                epoch_losses.append(loss)
                step += 1
                m *= models.ADAM_BETA1
                m += (1 - models.ADAM_BETA1) * grad_flat
                v *= models.ADAM_BETA2
                v += (1 - models.ADAM_BETA2) * grad_flat * grad_flat
                m_hat = m / (1 - models.ADAM_BETA1 ** step)
                v_hat = v / (1 - models.ADAM_BETA2 ** step)
                params -= (config.learning_rate * m_hat
                           / (np.sqrt(v_hat) + models.ADAM_EPS)).astype(dtype)
            trace.append(float(np.mean(epoch_losses)))
    return Predictor(architecture=arch, params=params.astype(np.float64),
                     loss_trace=tuple(trace))


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(model_kind="tree")
        with pytest.raises(ConfigurationError):
            TrainConfig(model_kind="mlp", learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(model_kind="mlp", epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(model_kind="mlp", batch_size=0)


class TestGradients:
    """Analytic backprop vs central finite differences, every architecture."""

    def test_logistic(self):
        rng = np.random.default_rng(1)
        arch = {"kind": "logistic", "in_dim": 3}
        for trial in range(3):
            x = rng.normal(size=(9, 3))
            y = rng.integers(0, 2, 9)
            params = models.init_params(arch, seed=trial)
            worst = finite_difference_check(arch, params, x, y, 1.6, 50, trial)
            assert worst < 1e-4

    def test_mlp(self):
        rng = np.random.default_rng(2)
        arch = {"kind": "mlp", "in_dim": 4, "hidden": 256}
        for trial in range(2):
            x = rng.normal(size=(7, 4))
            y = rng.integers(0, 2, 7)
            params = models.init_params(arch, seed=10 + trial)
            worst = finite_difference_check(arch, params, x, y, 2.5, 60, trial)
            assert worst < 1e-4

    def test_convnet(self):
        rng = np.random.default_rng(3)
        arch = {"kind": "convnet", "height": 28, "width": 28, "channels": 3}
        x = rng.integers(0, 256, size=(3, 28, 28, 3))
        y = rng.integers(0, 2, 3)
        params = models.init_params(arch, seed=21)
        worst = finite_difference_check(arch, params, x, y, 1.3, 60, 5)
        assert worst < 1e-4

    def test_convnet_every_block(self):
        # a uniform draw over all parameters almost never lands outside w3,
        # so check a few coordinates of each of the eight blocks; the
        # constant background of the first images ties pooling windows
        rng = np.random.default_rng(7)
        x = rng.integers(0, 256, size=(4, 28, 28, 3))
        x[:2, :, :16] = 0
        y = np.array([1, 0, 1, 0])
        params = models.init_params(CONV_ARCH, seed=22)
        offsets = np.cumsum([0] + [int(np.prod(shape)) or 1 for _, shape, _
                                   in models.param_layout(CONV_ARCH)])
        _, grad = models.loss_and_grad(CONV_ARCH, params, x, y, 1.3,
                                       dtype=np.float64)
        h = 1e-6
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            for i in rng.choice(np.arange(lo, hi), size=min(3, hi - lo),
                                replace=False):
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                fd = (models.loss_and_grad(CONV_ARCH, up, x, y, 1.3,
                                           np.float64)[0]
                      - models.loss_and_grad(CONV_ARCH, down, x, y, 1.3,
                                             np.float64)[0]) / (2 * h)
                rel = abs(fd - grad[i]) / max(1e-8, abs(fd), abs(grad[i]))
                assert rel < 1e-4, (i, fd, grad[i])

    def test_convnet_parts_add_up_to_the_batch_gradient(self):
        # training scores a batch in parts of SUB_BATCH with the whole
        # batch's length as divisor, and adds the parts in order
        rng = np.random.default_rng(6)
        params = models.init_params(CONV_ARCH, seed=23)
        p = models.unpack_params(params, CONV_ARCH)
        part = np.zeros_like(params)
        grads = models.unpack_params(part, CONV_ARCH)
        for batch in (64, 40, 7):
            xs = rng.integers(0, 256, size=(batch, 28, 28, 3), dtype=np.uint8)
            y = rng.integers(0, 2, batch).astype(np.float64)
            _, whole = models.loss_and_grad(CONV_ARCH, params, xs, y,
                                            dtype=np.float64)
            x = models.prepare_inputs(CONV_ARCH, xs, np.float64)
            total = np.zeros_like(params)
            for lo in range(0, batch, models.SUB_BATCH):
                rows = slice(lo, lo + models.SUB_BATCH)
                _, cache = models._forward(CONV_ARCH, p, x[rows],
                                           want_cache=True)
                models._backward(CONV_ARCH, p, cache, y[rows], 1.0, batch,
                                 grads)
                total += part
            error = np.linalg.norm(total - whole)
            assert error <= 1e-12 * np.linalg.norm(whole)


class TestConvPlan:
    def test_matches_naive_convolution(self):
        # the im2col matrix product must equal the direct sliding-window sum
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 10, 9, 2))
        kernel = rng.normal(size=(5, 5, 2, 3))
        bias = rng.normal(size=3)
        out = models._conv_product(x, kernel)[0] + bias
        assert out.shape == (2, 6, 5, 3)
        naive = np.zeros_like(out)
        for b in range(2):
            for i in range(6):
                for j in range(5):
                    patch = x[b, i:i + 5, j:j + 5, :]
                    for f in range(3):
                        naive[b, i, j, f] = (patch * kernel[..., f]).sum() \
                            + bias[f]
        assert np.allclose(out, naive, atol=1e-10)

    def test_input_gradient_matches_naive_scatter(self):
        # every output gradient flows back to the 5x5 patch it was computed
        # from, weighted by the kernel tap
        rng = np.random.default_rng(6)
        d_out = rng.normal(size=(2, 6, 5, 3))
        kernel = rng.normal(size=(5, 5, 2, 3))
        dx = models._conv_input_grad(d_out, kernel, (2, 10, 9, 2))
        naive = np.zeros((2, 10, 9, 2))
        for b in range(2):
            for i in range(6):
                for j in range(5):
                    for f in range(3):
                        naive[b, i:i + 5, j:j + 5, :] += \
                            d_out[b, i, j, f] * kernel[..., f]
        assert np.allclose(dx, naive, atol=1e-10)

    def test_pooling_matches_blockwise_max(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 8, 6, 4))
        out, _ = models._pool_forward(x, want_masks=False)
        for b in range(3):
            for i in range(4):
                for j in range(3):
                    block = x[b, 2 * i:2 * i + 2, 2 * j:2 * j + 2, :]
                    assert np.allclose(out[b, i, j], block.max(axis=(0, 1)))


class TestTrain:
    def test_deterministic_parameters(self):
        ds = sample_rct(ScmConfig(0.5, 1.0, 2000, seed=0))
        config = TrainConfig("logistic", learning_rate=0.05, epochs=3,
                             batch_size=128, seed=7)
        a = train(ds, config)
        b = train(ds, config)
        assert np.array_equal(a.params, b.params)
        assert a.loss_trace == b.loss_trace

    def test_deterministic_convnet(self):
        images, labels = make_digit_images(256, seed=1)
        colored = rb.generate(mnist.MnistArchive(images, labels),
                              rb.build_population(3), seed=0)
        rct = colored.as_rct_dataset()
        config = TrainConfig("convnet", epochs=1, seed=3)
        assert np.array_equal(train(rct, config).params,
                              train(rct, config).params)

    def test_parameters_do_not_depend_on_the_blas_thread_count(
            self, monkeypatch):
        blas = models._numpy_openblas()
        if blas is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_ = blas
        images, labels = make_digit_images(250, seed=1)
        colored = rb.generate(mnist.MnistArchive(images, labels),
                              rb.build_population(3), seed=0)
        rct = colored.as_rct_dataset()
        # batches of 40 score in parts of 16, 16 and 8; the last batch, 10
        config = TrainConfig("convnet", epochs=1, batch_size=40, seed=3)
        diverging = TrainConfig("mlp", learning_rate=1e300, epochs=3,
                                batch_size=64, seed=0)
        before = get()
        params = {}
        try:
            for threads in (1, 2):
                set_(threads)
                for cores in (1, 2, 3):
                    monkeypatch.setattr(models, "_usable_cores",
                                        lambda: cores)
                    params[threads, cores] = train(rct, config).params
                    assert get() == threads
            with np.errstate(all="ignore"), pytest.raises(TrainingError):
                train(sample_rct(ScmConfig(0.5, 1.0, 256, seed=0)), diverging)
            assert get() == 2
        finally:
            set_(before)
        for other in params.values():
            assert np.array_equal(params[1, 1], other)

    def test_divergence_inside_the_scoring_pool(self, monkeypatch):
        blas = models._numpy_openblas()
        if blas is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_ = blas
        images, labels = make_digit_images(256, seed=1)
        colored = rb.generate(mnist.MnistArchive(images, labels),
                              rb.build_population(3), seed=0)
        rct = colored.as_rct_dataset()
        monkeypatch.setattr(models, "_usable_cores", lambda: 2)
        before = get()
        threads = threading.active_count()
        try:
            set_(2)
            with np.errstate(all="ignore"), \
                    pytest.raises(TrainingError, match="at epoch 0"):
                train(rct, TrainConfig("convnet", learning_rate=1e300,
                                       epochs=2, seed=3))
            assert get() == 2
        finally:
            set_(before)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind, n, batch_size", [
        ("logistic", 1000, 256),  # a ragged last batch of 232
        ("mlp", 500, 64),
    ])
    def test_equals_the_per_step_loop(self, kind, n, batch_size):
        ds = sample_rct(ScmConfig(0.5, 1.0, n, seed=2))
        config = TrainConfig(kind, learning_rate=0.05, epochs=3,
                             batch_size=batch_size, seed=5)
        got, want = train(ds, config), per_step_train(ds, config)
        assert np.array_equal(got.params, want.params)
        assert got.loss_trace == want.loss_trace

    def test_convnet_equals_the_per_step_loop(self):
        images, labels = make_digit_images(250, seed=1)
        colored = rb.generate(mnist.MnistArchive(images, labels),
                              rb.build_population(3), seed=0)
        rct = colored.as_rct_dataset()
        # batches of 40 score in parts of 16, 16 and 8; the last batch, 10
        config = TrainConfig("convnet", epochs=2, batch_size=40, seed=3)
        got, want = train(rct, config), per_step_train(rct, config)
        assert np.array_equal(got.params, want.params)
        assert got.loss_trace == want.loss_trace

    def test_divergence_epoch_equals_the_per_step_loop(self):
        # these rates diverge at epochs 0 and 2; the epoch loss is computed
        # after the epoch, yet the same epoch must be reported
        ds = sample_rct(ScmConfig(0.5, 1.0, 256, seed=0))
        for lr in (1e300, 10 ** 153.25):
            config = TrainConfig("mlp", learning_rate=lr, epochs=4,
                                 batch_size=64, seed=0)
            with np.errstate(all="ignore"):
                with pytest.raises(TrainingError) as want:
                    per_step_train(ds, config)
                with pytest.raises(TrainingError) as got:
                    train(ds, config)
            assert str(got.value) == str(want.value)

    def test_heldout_accuracy_beats_floor(self):
        # Bayes accuracy of the oracle threshold rule, by quadrature:
        # integrate max(phi(x), 1-phi(x)) over the observation mixture.
        def integrand(x):
            density = 0.5 * stats.norm.pdf(x, 1, np.sqrt(2)) \
                + 0.5 * stats.norm.pdf(x, 0, np.sqrt(2))
            p = ndtr(x)
            return max(p, 1 - p) * density
        bayes, _ = integrate.quad(integrand, -12, 12, limit=200)
        assert abs(bayes - 0.8211340835372718) < 1e-9

        ds = sample_rct(ScmConfig(0.5, 1.0, 100000, seed=0))
        held_out = sample_rct(ScmConfig(0.5, 1.0, 20000, seed=1))
        pred = train(ds, TrainConfig("logistic", learning_rate=0.05,
                                     epochs=10, batch_size=256, seed=0))
        scores = predict_soft(pred, held_out.x)
        accuracy = evaluate_predictions(scores, held_out.y).accuracy
        assert accuracy >= 0.70
        assert accuracy <= bayes + 0.01

    def test_constant_outcome_saturates(self):
        xs = np.linspace(-1, 1, 50)
        ds = scalar_dataset(xs, np.ones(50))
        pred = train(ds, TrainConfig("logistic", learning_rate=0.5,
                                     epochs=300, batch_size=50, seed=0))
        assert predict_soft(pred, xs).min() > 0.99

    def test_divergence_reports_epoch(self):
        ds = sample_rct(ScmConfig(0.5, 1.0, 256, seed=0))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(ds, TrainConfig("mlp", learning_rate=1e300, epochs=3,
                                      batch_size=64, seed=0))

    def test_loss_trace_nonincreasing_within_noise(self):
        ds = sample_rct(ScmConfig(0.5, 1.0, 20000, seed=4))
        pred = train(ds, TrainConfig("logistic", learning_rate=0.05, epochs=6,
                                     batch_size=256, seed=4))
        for earlier, later in zip(pred.loss_trace, pred.loss_trace[1:]):
            assert later <= earlier + 0.005

    def test_mean_absolute_error_shrinks_with_sample_size(self):
        # the premise behind the discretization result: the scorer converges
        # to the conditional mean in L1 as the training pool grows. The
        # misspecified logistic saturates near its population-fit floor
        # (~0.01) instead of reaching zero, so beyond 1e4 the curve is flat
        # within seed noise rather than strictly decreasing.
        sizes = (1000, 10000, 100000)
        mad = {n: [] for n in sizes}
        probe = sample_rct(ScmConfig(0.5, 1.0, 20000, seed=999))
        target = oracle_conditional_mean(probe.x, 1.0)
        for seed in range(6):
            for n in sizes:
                ds = sample_rct(ScmConfig(0.5, 1.0, n, seed=100 + seed))
                pred = train(ds, TrainConfig("logistic", learning_rate=0.05,
                                             epochs=10, batch_size=256,
                                             seed=seed))
                scores = predict_soft(pred, probe.x)
                mad[n].append(np.abs(scores - target).mean())
        averaged = [np.mean(mad[n]) for n in sizes]
        noise = 0.004
        assert averaged[0] > averaged[1] + noise
        assert averaged[2] <= averaged[1] + noise


class TestBatchLosses:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, batch", [
        (1024, 64), (1000, 64), (1, 64), (63, 64), (200, 1), (999, 7),
        (100000, 256)])
    def test_equal_bce_of_each_batch(self, dtype, n, batch):
        rng = np.random.default_rng(n * batch)
        prob = rng.random(n).astype(dtype)
        prob[::5] = 0.0  # clipped before the logs
        prob[1::7] = 1.0
        y = rng.integers(0, 2, n).astype(dtype)
        losses = models._batch_losses(prob, y, batch)
        assert losses.dtype == dtype
        want = [models.bce(prob[lo:lo + batch], y[lo:lo + batch])
                for lo in range(0, n, batch)]
        assert losses.tolist() == want


class TestPredictSoft:
    def test_zero_parameters_score_half(self):
        arch = {"kind": "logistic", "in_dim": 1}
        pred = Predictor(architecture=arch,
                         params=np.zeros(len(models.init_params(arch, 0))))
        assert (predict_soft(pred, np.array([-5.0, 0.0, 5.0])) == 0.5).all()

    def test_monotone_in_input_for_positive_slope(self):
        arch = {"kind": "logistic", "in_dim": 1}
        pred = Predictor(architecture=arch, params=np.array([2.0, 0.3]))
        scores = predict_soft(pred, np.linspace(-3, 3, 50))
        assert (np.diff(scores) > 0).all()

    def test_scores_in_unit_interval(self):
        arch = {"kind": "mlp", "in_dim": 2, "hidden": 256}
        pred = Predictor(architecture=arch,
                         params=models.init_params(arch, seed=0) * 50)
        scores = predict_soft(pred, np.random.default_rng(0).normal(size=(64, 2)))
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_shape_mismatch_rejected(self):
        arch = {"kind": "logistic", "in_dim": 2}
        pred = Predictor(architecture=arch, params=np.zeros(3))
        with pytest.raises(DomainError, match="dimension"):
            predict_soft(pred, np.zeros((5, 3)))
        conv_arch = {"kind": "convnet", "height": 28, "width": 28, "channels": 3}
        zeros = np.zeros(len(models.init_params(conv_arch, 0)))
        conv = Predictor(architecture=conv_arch, params=zeros)
        with pytest.raises(DomainError, match="convnet"):
            predict_soft(conv, np.zeros((2, 14, 14, 3), dtype=np.uint8))

    def test_tracks_oracle_loosely(self):
        # logistic is misspecified for the probit truth (advisory check):
        # the exact-MLE fit is off by ~0.016 at the grid edges and the
        # adaptive-moment optimizer wanders a little further
        ds = sample_rct(ScmConfig(0.5, 1.0, 100000, seed=3))
        pred = train(ds, TrainConfig("logistic", learning_rate=0.05,
                                     epochs=10, batch_size=256, seed=3))
        grid = np.linspace(-3, 3, 61)
        gap = np.abs(predict_soft(pred, grid)
                     - oracle_conditional_mean(grid, 1.0)).max()
        assert gap < 0.05


CONV_ARCH = {"kind": "convnet", "height": 28, "width": 28, "channels": 3}


def conv_predictor():
    return Predictor(architecture=CONV_ARCH,
                     params=models.init_params(CONV_ARCH, seed=0))


class TestInference:
    def test_inference_forward_equals_training_forward(self):
        # centered inputs are negative on the background, and the constant
        # background makes many windows, and so many pooled maxima, tie
        rng = np.random.default_rng(8)
        for trial in range(3):
            x = rng.normal(size=(16, 28, 28, 3)).astype(np.float32)
            x[:8, :, :14] = np.float32(-0.5)
            x[8:, 10:] = np.float32(0.25)
            params = models.init_params(CONV_ARCH, seed=trial).astype(np.float32)
            p = models.unpack_params(params, CONV_ARCH)
            fast, _ = models._forward(CONV_ARCH, p, x, want_cache=False)
            ref, _ = models._forward(CONV_ARCH, p, x, want_cache=True)
            assert fast.dtype == ref.dtype == np.float32
            assert np.array_equal(fast, ref)

    def test_scores_when_count_is_not_a_batch_multiple(self, monkeypatch):
        image_bytes = 28 * 28 * 3 * 4
        rng = np.random.default_rng(9)
        xs = rng.integers(0, 256, size=(2 * 64 + 37, 28, 28, 3), dtype=np.uint8)
        pred = conv_predictor()
        default = predict_soft(pred, xs)
        monkeypatch.setattr(models, "PREDICT_BATCH_BYTES", 64 * image_bytes)
        p = models.unpack_params(pred.params.astype(np.float32), CONV_ARCH)
        x = models.prepare_inputs(CONV_ARCH, xs)
        with models._one_blas_thread():
            ref = np.concatenate([
                models._forward(CONV_ARCH, p, x[lo:lo + 64],
                                want_cache=True)[0]
                for lo in range(0, len(x), 64)])
        scores = predict_soft(pred, xs)
        assert scores.shape == (len(xs),) and scores.dtype == np.float64
        assert np.array_equal(scores, ref)
        # BLAS picks its kernels by matrix size, so another batching may
        # round differently, but only in the last float32 bits
        assert np.allclose(scores, default, rtol=0, atol=1e-6)

    def test_scores_do_not_depend_on_the_thread_count(self, monkeypatch):
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 256, size=(300, 28, 28, 3), dtype=np.uint8)
        pred = conv_predictor()
        scores = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(models, "_usable_cores", lambda: cores)
            scores[cores] = predict_soft(pred, xs)
        assert np.array_equal(scores[1], scores[2])
        assert np.array_equal(scores[1], scores[3])

    def test_logistic_and_mlp_score_in_series(self, monkeypatch):
        # their batches take less time than starting a thread pool
        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread pool")

        monkeypatch.setattr(models, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(models, "_usable_cores", lambda: 2)
        ds = sample_rct(ScmConfig(0.5, 1.0, 1000, seed=0))
        xs = np.linspace(-3, 3, 140000)  # three batches of scalar units
        for kind in ("logistic", "mlp"):
            pred = train(ds, TrainConfig(kind, learning_rate=0.05, epochs=1,
                                         batch_size=256, seed=0))
            assert predict_soft(pred, xs).shape == xs.shape

    def test_pool_workers_score_on_one_thread(self):
        # sibling worker processes already occupy the other cores
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(models._usable_cores).result(timeout=60) == 1

    def test_fallback_without_openblas_controls(self, monkeypatch):
        rng = np.random.default_rng(12)
        xs = rng.integers(0, 256, size=(150, 28, 28, 3), dtype=np.uint8)
        pred = conv_predictor()
        threaded = predict_soft(pred, xs)
        # pin BLAS as the threaded path does: more BLAS threads may round
        # differently
        with models._one_blas_thread():
            monkeypatch.setattr(models, "_numpy_openblas", lambda: None)
            fallback = predict_soft(pred, xs)
        assert np.array_equal(fallback, threaded)

    def test_blas_thread_count_is_restored(self, monkeypatch):
        blas = models._numpy_openblas()
        if blas is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_ = blas
        rng = np.random.default_rng(13)
        xs = rng.integers(0, 256, size=(150, 28, 28, 3), dtype=np.uint8)
        pred = conv_predictor()
        before = get()
        try:
            set_(3)
            predict_soft(pred, xs)
            assert get() == 3
            forward = models._forward

            def failing_forward(arch, p, x, want_cache):
                if (x[:, 0, 0, 0] > 0).any():
                    raise FloatingPointError("batch failed")
                return forward(arch, p, x, want_cache)

            monkeypatch.setattr(models, "_forward", failing_forward)
            xs[:, 0, 0, 0] = 0
            xs[60, 0, 0, 0] = 255  # only the second batch fails
            with pytest.raises(FloatingPointError):
                predict_soft(pred, xs)
            assert get() == 3
        finally:
            set_(before)

    def test_peak_memory_does_not_grow_with_the_input(self):
        rng = np.random.default_rng(10)
        xs = rng.integers(0, 256, size=(8192, 28, 28, 3), dtype=np.uint8)
        pred = conv_predictor()

        def peak(n):
            tracemalloc.start()
            try:
                predict_soft(pred, xs[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        float_copy_2048 = 2048 * 28 * 28 * 3 * 4
        assert peak(8192) - peak(2048) < float_copy_2048


class TestDiscretize:
    def test_boundary_counts_as_positive(self):
        assert np.array_equal(discretize([0.2, 0.5, 0.9], 0.5), [0, 1, 1])

    def test_zero_threshold_is_all_ones(self):
        assert discretize(np.random.default_rng(0).random(100), 0.0).all()

    def test_near_threshold_split(self):
        assert np.array_equal(discretize([0.49999, 0.50001], 0.5), [0, 1])

    def test_invariant_under_logit_rescaling(self):
        # any strictly monotone transform fixing the threshold crossing
        # leaves the discretization unchanged
        rng = np.random.default_rng(5)
        scores = rng.random(500)
        logit = np.log(scores) - np.log1p(-scores)
        for a in (0.2, 1.0, 7.0):
            warped = 1.0 / (1.0 + np.exp(-a * logit))
            assert np.array_equal(discretize(scores), discretize(warped))


class TestEvaluatePredictions:
    def test_perfect_hard_scores(self):
        labels = np.array([0, 1, 1, 0, 1])
        m = evaluate_predictions(labels.astype(float), labels)
        assert m.accuracy == 1.0
        assert m.balanced_accuracy == 1.0
        assert m.bce <= 1.1e-7  # the clamp floor: -log(1 - 1e-7)

    def test_uninformative_scores_on_balanced_labels(self):
        labels = np.array([0, 1] * 50)
        m = evaluate_predictions(np.full(100, 0.5), labels)
        assert m.accuracy == 0.5  # ties resolve to the positive class
        assert abs(m.bce - np.log(2)) < 1e-12

    def test_hand_counted_example(self):
        m = evaluate_predictions(np.array([1.0, 1.0, 0.0, 0.0]),
                                 np.array([1, 1, 1, 0]))
        assert m.accuracy == 0.75
        assert abs(m.balanced_accuracy - 5 / 6) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            evaluate_predictions(np.zeros(3), np.zeros(4))


@pytest.mark.slow
class TestConvnetTask:
    def test_full_dataset_accuracy_floor(self, digit_archive):
        # reference training settings: lr 0.001, batch 64, 6 epochs
        colored = rb.generate(digit_archive, rb.build_population(3), seed=5)
        rct = colored.as_rct_dataset()
        rct = rb.assign_annotation(rct, rb.SamplingScheme("random", n_s=4000,
                                                          seed=1))
        pred = train(rct.annotated, TrainConfig("convnet", learning_rate=0.001,
                                                epochs=6, batch_size=64,
                                                seed=0))
        scores = predict_soft(pred, rct.x)
        assert evaluate_predictions(scores, rct.y).accuracy > 0.9
