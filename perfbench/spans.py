"""Layer spans recorded from outside the program.

The harness and the CLI look up the layer functions as module attributes at
call time (``mnist.generate(...)``, ``models.train(...)``, ...), so replacing
those attributes with timing wrappers sees every call without touching the
program. Each span records its name, start, end, parent span and run id in
memory; the spans are written out once the benchmark run ends.

Only in-process calls are seen: calls made inside pool workers are not, so
the traced pass runs with one worker.
"""

import functools
import math
import statistics
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute) -> span name; the span name is "<layer>.<function>"
LAYER_FUNCTIONS = {
    ("mnist", "load_idx"): "mnist.load_idx",
    ("mnist", "generate"): "mnist.generate",
    ("annotation", "assign_annotation"): "annotation.assign_annotation",
    ("annotation", "validation_indices"): "annotation.validation_indices",
    ("scm", "sample_rct"): "scm.sample_rct",
    ("models", "train"): "models.train",
    ("models", "predict_soft"): "models.predict_soft",
    ("models", "evaluate_predictions"): "models.evaluate_predictions",
    ("metrics", "teb_report"): "metrics.teb_report",
    ("metrics", "t_test"): "metrics.t_test",
    ("metrics", "two_sample_t_test"): "metrics.two_sample_t_test",
    ("metrics", "paired_discretization_test"):
        "metrics.paired_discretization_test",
    ("metrics", "spearman_matrix"): "metrics.spearman_matrix",
    ("metrics", "spearman"): "metrics.spearman",
    ("harness", "emit_report"): "harness.emit_report",
}
# the per-run entry points of the two studies; each call is one run
RUN_FUNCTIONS = (("harness", "_mnist_run"), ("harness", "_convergence_cell"))
AGGREGATE_SPANS = frozenset({
    "metrics.t_test", "metrics.two_sample_t_test",
    "metrics.paired_discretization_test", "metrics.spearman_matrix",
    "metrics.spearman"})
SWEEP = "cli.main"
RUN = "harness.run"


def _call_counts(name, args, result):
    """Exact work counts of one call, computed from its arguments."""
    if name == "mnist.load_idx":
        return {"images": len(result)}
    if name == "mnist.generate":
        n, h, w = args[0].images.shape
        return {"images": n, "bytes_out": n * h * w * 3}
    if name == "models.train":
        d_s, config = args[0], args[1]
        n = len(d_s)
        return {"steps": config.epochs * math.ceil(n / config.batch_size),
                "images": n * config.epochs}
    if name == "models.predict_soft":
        predictor, xs = args[0], np.asarray(args[1])
        # prepared input: float32 for the convnet, float64 otherwise
        itemsize = 4 if predictor.architecture["kind"] == "convnet" else 8
        return {"images": len(xs), "bytes_in": xs.size * itemsize}
    if name == "harness.emit_report":
        return {"bytes": sum(Path(p).stat().st_size for p in result)}
    return {}


class Tracer:
    """In-memory span recorder; ``installed()`` wraps the program's layer
    functions for the duration of a ``with`` block."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._open = []          # ids of the spans currently open
        self._run = None         # id of the current run span

    def _begin(self, name):
        span = {"id": len(self.spans), "name": name, "start": self.clock(),
                "end": None, "parent": self._open[-1] if self._open else None,
                "run": self._run, "counts": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span):
        span["end"] = self.clock()
        self._open.pop()

    @contextmanager
    def sweep(self):
        span = self._begin(SWEEP)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, original, name, is_run):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            outer_run = tracer._run
            if is_run:
                tracer._run = span["id"]
                span["run"] = span["id"]
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._run = outer_run
                tracer._end(span)
            span["counts"] = _call_counts(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap every layer function found in ``modules`` (name -> module)."""
        originals = []
        targets = [(key, name, False) for key, name in LAYER_FUNCTIONS.items()]
        targets += [(key, RUN, True) for key in RUN_FUNCTIONS]
        found_run = False
        for (module_name, attr), name, is_run in targets:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                if is_run:
                    continue
                raise AttributeError(f"rctbias.{module_name}.{attr} is gone; "
                                     "update perfbench/spans.py")
            found_run = found_run or is_run
            originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, is_run))
        try:
            if not found_run:
                raise AttributeError("no per-run entry point found in "
                                     "rctbias.harness; update perfbench/spans.py")
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans, untraced_sweep_s, native_sweep_s, workers):
    """Per-layer metrics from the spans of one or more traced sweeps.

    Times and counts are per sweep (averaged over the traced sweeps). A
    layer's time is the summed duration of its spans; the aggregate time
    counts only outermost aggregate calls, since some of them call each
    other. ``untraced_sweep_s`` is the median untraced in-process sweep, the
    base of the tracing overhead; ``native_sweep_s`` is the median untraced
    sweep with the workload's own ``workers``, the base of the pool
    efficiency.
    """
    by_id = {s["id"]: s for s in spans}
    sweeps = [s for s in spans if s["name"] == SWEEP]
    n = len(sweeps)
    traced_sweep_s = statistics.median(_duration(s) for s in sweeps)

    def total(name):
        return sum(_duration(s) for s in spans if s["name"] == name) / n

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans
                   if s["name"] == name) / n

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def outermost_aggregate(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in AGGREGATE_SPANS:
                return False
            parent = by_id[parent]["parent"]
        return True

    # top-level layer spans never overlap: the traced pass is one thread
    covered = sum(_duration(s) for s in spans
                  if s["name"] not in (SWEEP, RUN) and s["parent"] is not None
                  and by_id[s["parent"]]["name"] in (SWEEP, RUN))
    swept = sum(_duration(s) for s in sweeps)
    runs = [_duration(s) for s in spans if s["name"] == RUN]

    generate_s, train_s = total("mnist.generate"), total("models.train")
    predict_s = total("models.predict_soft")
    steps = count("models.train", "steps")
    m = {
        "mnist.load_idx_s": (total("mnist.load_idx"), "s"),
        "mnist.generate_s": (generate_s, "s"),
        "mnist.generate.images_per_s": (
            rate(count("mnist.generate", "images"), generate_s), "1/s"),
        "mnist.generate.bytes_out": (
            count("mnist.generate", "bytes_out"), "bytes"),
        "annotation.assign_annotation_s": (
            total("annotation.assign_annotation"), "s"),
        "annotation.validation_indices_s": (
            total("annotation.validation_indices"), "s"),
        "scm.sample_rct_s": (total("scm.sample_rct"), "s"),
        "models.train_s": (train_s, "s"),
        "models.train.steps": (steps, "count"),
        "models.train.images": (count("models.train", "images"), "count"),
        "models.train.step_ms": (1000 * train_s / steps if steps else 0.0,
                                 "ms"),
        "models.train.images_per_s": (
            rate(count("models.train", "images"), train_s), "1/s"),
        "models.predict_soft_s": (predict_s, "s"),
        "models.predict_soft.images": (
            count("models.predict_soft", "images"), "count"),
        "models.predict_soft.images_per_s": (
            rate(count("models.predict_soft", "images"), predict_s), "1/s"),
        "models.predict_soft.bytes_in": (
            count("models.predict_soft", "bytes_in"), "bytes"),
        "models.evaluate_predictions_s": (
            total("models.evaluate_predictions"), "s"),
        "metrics.teb_report_s": (total("metrics.teb_report"), "s"),
        "metrics.aggregate_s": (
            sum(_duration(s) for s in spans if s["name"] in AGGREGATE_SPANS
                and outermost_aggregate(s)) / n, "s"),
        "harness.emit_report_s": (total("harness.emit_report"), "s"),
        "harness.emit_report.bytes": (
            count("harness.emit_report", "bytes"), "bytes"),
        "harness.run.median_s": (statistics.median(runs), "s"),
        "harness.run.max_s": (max(runs), "s"),
        "harness.pool_efficiency": (
            sum(runs) / n / (workers * native_sweep_s), "ratio"),
        "trace.overhead_ratio": (traced_sweep_s / untraced_sweep_s - 1,
                                 "ratio"),
        "trace.unaccounted_ratio": (1 - covered / swept, "ratio"),
    }
    return m, traced_sweep_s
