"""Kernel microbenchmarks of the convnet: one batch-64 ``loss_and_grad`` and
one 1,024-image ``predict_soft``, on fixed seeded colored digits.

Both are warmed up first, so the convolution plan cache and first-touch
allocations stay out of the timed calls. Each reports the median and the
quartiles of its timed calls, in milliseconds.
"""

import statistics
import time

import numpy as np

import glyphs

KERNEL_SEED = 20240517
BATCH = 64
PREDICT_IMAGES = 1024
WARMUP = 3
LOSS_REPEATS = 21
PREDICT_REPEATS = 9


def _timed_ms(fn, repeats):
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(1000 * (time.perf_counter() - start))
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q1, q3


def run(mnist, models):
    images, labels = glyphs.render(PREDICT_IMAGES, KERNEL_SEED)
    archive = mnist.MnistArchive(images=images, labels=labels)
    colored = mnist.generate(archive, mnist.build_population(3),
                             seed=KERNEL_SEED)
    x, y = colored.images, colored.y
    arch = {"kind": "convnet", "height": x.shape[1], "width": x.shape[2],
            "channels": x.shape[3]}
    params = models.init_params(arch, KERNEL_SEED)
    predictor = models.Predictor(architecture=arch, params=params)
    params32 = params.astype(np.float32)

    loss = _timed_ms(lambda: models.loss_and_grad(
        arch, params32, x[:BATCH], y[:BATCH]), LOSS_REPEATS)
    predict = _timed_ms(lambda: models.predict_soft(predictor, x),
                        PREDICT_REPEATS)
    metrics = {}
    for name, (median, q1, q3) in (("models.loss_and_grad.b64", loss),
                                   ("models.predict_soft.b1024", predict)):
        metrics[f"{name}_ms"] = (median, "ms")
        metrics[f"{name}_q1_ms"] = (q1, "ms")
        metrics[f"{name}_q3_ms"] = (q3, "ms")
    return metrics
