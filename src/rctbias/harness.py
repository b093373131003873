"""End-to-end experiment orchestration.

Two studies are wired up:

* the discretization-convergence study on the synthetic scalar RCT
  (a grid of sample sizes, a logistic scorer per cell, empirical
  associational differences of the soft and thresholded predictions
  against their analytic limits), and

* the colored-digit sampling-bias study (per seed and annotation scheme:
  generate the benchmark, annotate, train a convnet, evaluate on a
  held-out validation set and on the full dataset, then run the
  hypothesis tests and rank-correlation matrices over the sweep).

Each run derives independent sub-seeds (generation, annotation,
validation, training) from its run seed through a SeedSequence, so no two
stages share a random stream. Runs are pure given their task description.
``run_study`` runs the study its RunConfig names through one sweep
(``_sweep``): in-process with one worker or one task, otherwise on a
process pool of ``workers`` processes, or one per task when there are
fewer tasks. Tasks are ordered by their identity keys, so reports do not
depend on scheduling or on the worker count. A run that raises, or that
kills its own pool worker, is recorded as a structured error entry
without aborting the sweep.

The config hash covers the experiment's identity (its RunConfig); how a
sweep is executed (the worker count) and where it is written are not part
of it. A report is its config, runs and errors: ``_report`` derives
every other block from them, after a sweep and when a report is read.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import analytic, annotation, metrics, mnist, models, scm
from ._version import __version__
from .errors import ConfigurationError

# annotation schemes of the colored-digit study: name -> (kind, n_s);
# biased schemes restrict annotation to black-pen images (setting slot == 0)
MNIST_SCHEMES = {
    "random_few": ("random", 1800),
    "biased_few": ("covariate_biased", 1800),
    "random_many": ("random", 12000),
    "biased_many": ("covariate_biased", 12000),
}

CONVERGENCE_EXPERIMENT = "convergence"
MNIST_EXPERIMENT = "mnist_bias"

# each study's predictor and the training settings a RunConfig leaves None
TRAINING_DEFAULTS = {
    CONVERGENCE_EXPERIMENT: {"model_kind": "logistic", "learning_rate": 0.05,
                             "epochs": 10, "batch_size": 256},
    MNIST_EXPERIMENT: {"model_kind": "convnet", "learning_rate": 0.001,
                       "epochs": 6, "batch_size": 64},
}

# the per-run evaluation metrics of the colored-digit study: the columns of
# its metric table, its correlation matrices and its model-selection checks
METRIC_COLUMNS = ("bce_val", "accuracy_val", "balanced_accuracy_val",
                  "abs_teb_val", "accuracy_full", "balanced_accuracy_full",
                  "abs_teb_full", "abs_teb_full_discretized")


@dataclass(frozen=True)
class RunConfig:
    """The identity of one experiment: everything that determines its
    results, and nothing about how or where it is run."""

    experiment: str
    seeds: tuple = (0,)
    threshold: float = 0.5
    # scalar-RCT study
    p_t: float = 0.5
    sigma2_y: float = 1.0
    sample_sizes: tuple = (1000, 10000, 100000)
    # colored-digit study
    mnist_images: Optional[str] = None
    mnist_labels: Optional[str] = None
    digit_threshold: int = 3
    schemes: tuple = ("random_few", "biased_few")
    validation_size: Optional[int] = None   # None: as large as the annotated pool
    # training; None takes the study's TRAINING_DEFAULTS
    learning_rate: Optional[float] = None
    epochs: Optional[int] = None
    batch_size: Optional[int] = None

    def __post_init__(self):
        if self.experiment not in (CONVERGENCE_EXPERIMENT, MNIST_EXPERIMENT):
            raise ConfigurationError(
                f"experiment must be '{CONVERGENCE_EXPERIMENT}' or "
                f"'{MNIST_EXPERIMENT}', got {self.experiment!r}")
        for name in ("seeds", "sample_sizes", "schemes"):
            values = getattr(self, name)
            if len(values) == 0 or len(set(values)) != len(values):
                raise ConfigurationError(
                    f"{name} must be a nonempty, duplicate-free list, "
                    f"got {list(values)}")
        for seed in self.seeds:
            if not (isinstance(seed, (int, np.integer)) and seed >= 0):
                raise ConfigurationError(f"seeds must be >= 0, got {seed}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError("threshold must satisfy 0 < threshold "
                                     f"< 1, got {self.threshold}")
        for scheme in self.schemes:
            if scheme not in MNIST_SCHEMES:
                raise ConfigurationError(
                    f"unknown scheme {scheme!r}; choose from "
                    f"{tuple(MNIST_SCHEMES)}")
        # the checks of the study's own configs, before any run starts
        self.train_config(seed=0)
        if self.experiment == CONVERGENCE_EXPERIMENT:
            for n in self.sample_sizes:
                scm.ScmConfig(p_t=self.p_t, sigma2_y=self.sigma2_y, n=n)
        else:
            if not self.mnist_images or not self.mnist_labels:
                raise ConfigurationError("the colored-digit study requires "
                                         "mnist_images and mnist_labels paths")
            mnist.build_population(self.digit_threshold)
            size = self.validation_size
            if size is not None and not (
                    isinstance(size, (int, np.integer)) and size >= 1):
                raise ConfigurationError(
                    f"validation_size must be >= 1, got {size}")

    def train_config(self, seed: int) -> models.TrainConfig:
        """The training settings of one run: the study's defaults, with each
        training field that is not None in their place."""
        settings = dict(TRAINING_DEFAULTS[self.experiment])
        for name in ("learning_rate", "epochs", "batch_size"):
            if getattr(self, name) is not None:
                settings[name] = getattr(self, name)
        return models.TrainConfig(seed=seed, **settings)


@dataclass
class ExperimentReport:
    """Everything an experiment produced. The config, runs and errors are
    its results; ``_report`` computes the aggregates, tests and correlations
    from them, and the metric table and violins are derived on access."""

    experiment: str
    config: dict
    config_hash: str
    tool_version: str
    runs: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def metric_table(self) -> Optional[list]:
        """One row dict per colored-digit run: its seed, scheme, model kind
        and METRIC_COLUMNS; None for the convergence study."""
        if self.experiment != MNIST_EXPERIMENT:
            return None
        model_kind = TRAINING_DEFAULTS[MNIST_EXPERIMENT]["model_kind"]
        return [{"seed": run["seed"], "scheme": run["scheme"],
                 "model_kind": model_kind,
                 **{name: run[name] for name in METRIC_COLUMNS}}
                for run in self.runs]

    @property
    def violins(self) -> dict:
        """Per scheme with runs, the soft and discretized TERB of each run
        (NaN where undefined); empty for the convergence study."""
        by_scheme = {}
        if self.experiment == MNIST_EXPERIMENT:
            for run in self.runs:
                by_scheme.setdefault(run["scheme"], []).append(
                    (run["terb_full"], run["terb_full_discretized"]))
        violins = {}
        for scheme, pairs in by_scheme.items():
            soft, hard = np.array(pairs, dtype=np.float64).T
            violins[scheme] = {"terb_soft": soft.tolist(),
                               "terb_hard": hard.tolist()}
        return violins


def config_hash(config: RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _outcomes(run, tasks, workers, initializer, initargs):
    """(task, call returning the task's result) pairs in task order; the
    call raises what the run raised, or why its pool worker failed. A dead
    worker breaks its whole pool, so each task the pool left unfinished is
    run again alone, on a fresh pool of one worker."""
    if workers == 1:
        if initializer is not None:
            initializer(*initargs)
        for task in tasks:
            yield task, functools.partial(run, task)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                             initializer=initializer,
                             initargs=initargs) as pool:
        futures = [pool.submit(run, task) for task in tasks]
        for task, future in zip(tasks, futures):
            if len(tasks) > 1 and isinstance(future.exception(),
                                             BrokenProcessPool):
                yield from _outcomes(run, [task], workers, initializer,
                                     initargs)
            else:
                yield task, future.result


def _sweep(run, tasks, identity, workers, initializer=None, initargs=()):
    """Run every task through ``run``; returns (results, errors), both in
    the order of the tasks' ``identity`` keys.

    One worker, or one task, runs in this process, after calling
    ``initializer``; more run on a process pool of min(workers, tasks)
    processes, each of which calls it. Each task is its own future, so a
    task that raises, or whose worker dies even when it runs alone
    (BrokenProcessPool), becomes an error record of its identity keys, the
    exception type and its message, and the rest of the sweep still
    completes.
    """
    tasks = sorted(tasks, key=lambda task: [task[k] for k in identity])
    workers = min(workers, len(tasks))
    results, errors = [], []
    for task, outcome in _outcomes(run, tasks, workers, initializer, initargs):
        try:
            results.append(outcome())
        except Exception as exc:  # record-and-continue
            errors.append({**{k: task[k] for k in identity},
                           "error": type(exc).__name__, "message": str(exc)})
    return results, errors


def _subseeds(seed: int, n: int) -> list:
    """Independent stage seeds derived from a run seed."""
    words = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(w) for w in words]


def _column(rows: list, name: str) -> np.ndarray:
    """The values of ``name`` across ``rows`` (None becomes NaN); raises
    ValueError on a value that is not one number."""
    return np.fromiter((row[name] for row in rows), np.float64, len(rows))


# --------------------------------------------------------------------------
# convergence study

def _convergence_cell(task: dict) -> dict:
    """One (sample size, seed) cell of the convergence study."""
    n, seed, config = task["n"], task["seed"], task["config"]
    gen_seed, train_seed = _subseeds(seed, 2)
    dataset = scm.sample_rct(scm.ScmConfig(p_t=config.p_t,
                                           sigma2_y=config.sigma2_y,
                                           n=n, seed=gen_seed))
    predictor = models.train(dataset, config.train_config(train_seed))
    scores = models.predict_soft(predictor, dataset.x)
    report = metrics.teb_report(
        scores, dataset.y, dataset.t,
        reference_ate=analytic.analytic_ad(config.sigma2_y),
        threshold=config.threshold)
    quality = models.evaluate_predictions(scores, dataset.y)
    return {
        "n": n, "seed": seed,
        "ead_soft": report.ead_soft, "ead_hard": report.ead_hard,
        "ead_truth": report.ead_truth,
        "teb_soft": report.teb_soft, "teb_hard": report.teb_hard,
        "terb_soft": report.terb_soft, "terb_hard": report.terb_hard,
        "bce": quality.bce, "accuracy": quality.accuracy,
    }


def _aggregate_convergence(report: ExperimentReport,
                           config: RunConfig) -> None:
    ad_soft = analytic.analytic_ad(config.sigma2_y)
    ad_hard = analytic.analytic_discretized_ad()
    report.aggregates["references"] = {
        "analytic_ad": ad_soft, "analytic_discretized_ad": ad_hard}
    per_n = {}
    for n in sorted({r["n"] for r in report.runs}):
        cells = [r for r in report.runs if r["n"] == n]
        soft, hard = _column(cells, "ead_soft"), _column(cells, "ead_hard")
        per_n[str(n)] = {
            "runs": len(cells),
            "ead_soft_mean": float(soft.mean()),
            "ead_soft_std": float(soft.std(ddof=1)) if len(cells) > 1 else 0.0,
            "ead_hard_mean": float(hard.mean()),
            "ead_hard_std": float(hard.std(ddof=1)) if len(cells) > 1 else 0.0,
            "gap_mean": float((hard - soft).mean()),
            "abs_dev_hard_from_discretized_limit":
                float(np.abs(hard - ad_hard).mean()),
            "abs_dev_hard_from_true_ad": float(np.abs(hard - ad_soft).mean()),
        }
    report.aggregates["per_n"] = per_n


# --------------------------------------------------------------------------
# colored-digit study

_WORKER_ARCHIVE: Optional[mnist.MnistArchive] = None


def _init_mnist_worker(archive: mnist.MnistArchive) -> None:
    global _WORKER_ARCHIVE
    _WORKER_ARCHIVE = archive


def _mnist_run(task: dict) -> dict:
    """One (scheme, seed) run of the colored-digit study."""
    scheme_name, seed, config = task["scheme"], task["seed"], task["config"]
    kind, n_s = MNIST_SCHEMES[scheme_name]
    gen_seed, ann_seed, val_seed, train_seed = _subseeds(seed, 4)
    spec = mnist.build_population(config.digit_threshold)
    colored = mnist.generate(_WORKER_ARCHIVE, spec, seed=gen_seed)
    rct = colored.as_rct_dataset()
    dataset = annotation.assign_annotation(
        rct, annotation.SamplingScheme(kind=kind, n_s=n_s, seed=ann_seed))
    val_idx = annotation.validation_indices(
        dataset, size=config.validation_size, seed=val_seed)
    predictor = models.train(dataset.annotated,
                             config.train_config(train_seed))
    scores = models.predict_soft(predictor, dataset.x)

    val_scores = scores[val_idx]
    val_y = dataset.y[val_idx]
    val_t = dataset.t[val_idx]
    val_quality = models.evaluate_predictions(val_scores, val_y)
    val_teb = metrics.teb_report(val_scores, val_y, val_t,
                                 reference_ate=spec.ate,
                                 threshold=config.threshold)
    full_quality = models.evaluate_predictions(scores, dataset.y)
    full_teb = metrics.teb_report(scores, dataset.y, dataset.t,
                                  reference_ate=spec.ate,
                                  threshold=config.threshold)
    return {
        "scheme": scheme_name, "seed": seed,
        "bce_val": val_quality.bce,
        "accuracy_val": val_quality.accuracy,
        "balanced_accuracy_val": val_quality.balanced_accuracy,
        "abs_teb_val": abs(val_teb.teb_soft),
        "accuracy_full": full_quality.accuracy,
        "balanced_accuracy_full": full_quality.balanced_accuracy,
        "abs_teb_full": abs(full_teb.teb_soft),
        "abs_teb_full_discretized": abs(full_teb.teb_hard),
        "teb_full": full_teb.teb_soft,
        "teb_full_discretized": full_teb.teb_hard,
        "terb_full": full_teb.terb_soft,
        "terb_full_discretized": full_teb.terb_hard,
        "ead_truth_full": full_teb.ead_truth,
        "designed_ate": spec.ate,
        "final_train_loss": predictor.loss_trace[-1],
    }


def _aggregate_mnist(report: ExperimentReport, config: RunConfig) -> None:
    runs = report.runs

    by_scheme = {}
    for scheme in config.schemes:
        rows = [r for r in runs if r["scheme"] == scheme]
        if not rows:
            continue
        by_scheme[scheme] = rows
        terb = _column(rows, "terb_full")
        teb = _column(rows, "teb_full")
        agg = {
            "runs": len(rows),
            "mean_teb": float(teb.mean()),
            "std_teb": float(teb.std(ddof=1)) if len(rows) > 1 else 0.0,
            "mean_abs_terb": float(np.abs(terb).mean()),
            "mean_accuracy_full": float(_column(rows, "accuracy_full").mean()),
        }
        report.aggregates.setdefault("per_scheme", {})[scheme] = agg
        if len(rows) >= 2:
            res = metrics.t_test(teb, mu0=0.0, sides="two")
            report.tests.setdefault("teb_zero", {})[scheme] = asdict(res)

    if len(runs) >= 2:
        res = metrics.paired_discretization_test(
            _column(runs, "abs_teb_full"),
            _column(runs, "abs_teb_full_discretized"))
        report.tests["discretization_paired"] = asdict(res)

    for biased, random_ in (("biased_few", "random_few"),
                            ("biased_many", "random_many")):
        if biased in by_scheme and random_ in by_scheme:
            abs_biased = np.abs(_column(by_scheme[biased], "terb_full"))
            abs_random = np.abs(_column(by_scheme[random_], "terb_full"))
            if len(abs_biased) >= 2 and len(abs_random) >= 2:
                res = metrics.two_sample_t_test(abs_biased, abs_random,
                                                sides="greater")
                entry = asdict(res)
                entry["mean_abs_terb_biased"] = float(abs_biased.mean())
                entry["mean_abs_terb_random"] = float(abs_random.mean())
                report.tests.setdefault("abs_terb_biased_vs_random", {})[
                    f"{biased}_vs_{random_}"] = entry

    groups = {"all": runs}
    for name, kind in (("random", "random"), ("biased", "covariate_biased")):
        groups[name] = [r for r in runs
                        if MNIST_SCHEMES[r["scheme"]][0] == kind]
    for name, rows in groups.items():
        if len(rows) >= 3:
            report.correlations[name] = metrics.spearman_matrix(
                {column: _column(rows, column) for column in METRIC_COLUMNS})
    if len(runs) >= 3:
        abs_teb_full = _column(runs, "abs_teb_full")
        report.aggregates["model_selection"] = {
            "spearman_absteb_val_vs_full": metrics.spearman(
                _column(runs, "abs_teb_val"), abs_teb_full),
            "spearman_accuracy_val_vs_full_absteb": metrics.spearman(
                _column(runs, "accuracy_val"), abs_teb_full),
            "spearman_balanced_accuracy_val_vs_full_absteb": metrics.spearman(
                _column(runs, "balanced_accuracy_val"), abs_teb_full),
        }


def _check_validation_fits(config: RunConfig, archive_size: int) -> None:
    """Raise ConfigurationError unless every scheme's unannotated pool (the
    archive less the scheme's n_s) can supply the validation set, which
    defaults to n_s. A scheme that cannot annotate n_s of the archive at
    all has no such pool; its runs fail at annotation, as any other
    infeasible annotation does."""
    for scheme in config.schemes:
        n_s = MNIST_SCHEMES[scheme][1]
        size = n_s if config.validation_size is None \
            else config.validation_size
        if n_s < archive_size and size > archive_size - n_s:
            raise ConfigurationError(
                f"validation_size {size} exceeds the unannotated pool of "
                f"{archive_size - n_s} images that scheme {scheme} leaves "
                f"in an archive of {archive_size}")


# --------------------------------------------------------------------------
# the study runner

def _report(config: RunConfig, runs: list, errors: list,
            tool_version: str) -> ExperimentReport:
    """The report of ``config``'s runs and errors, with the aggregates,
    tests and correlations its study derives from them."""
    report = ExperimentReport(
        experiment=config.experiment, config=asdict(config),
        config_hash=config_hash(config), tool_version=tool_version,
        runs=runs, errors=errors)
    aggregate = _aggregate_convergence \
        if config.experiment == CONVERGENCE_EXPERIMENT else _aggregate_mnist
    aggregate(report, config)
    return report


def run_study(config: RunConfig, workers: int = 1) -> ExperimentReport:
    """Run the study ``config.experiment`` names on ``workers`` processes.

    The convergence study sweeps (sample size, seed) cells: how the
    empirical associational differences of a logistic scorer and its
    thresholded version converge to their (distinct) analytic limits. The
    colored-digit study sweeps (annotation scheme, seed) runs, then tests
    for sampling bias, discretization bias, and the relative merit of the
    evaluation metrics for model selection.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if config.experiment == CONVERGENCE_EXPERIMENT:
        tasks = [{"n": int(n), "seed": seed, "config": config}
                 for n in config.sample_sizes for seed in config.seeds]
        runs, errors = _sweep(_convergence_cell, tasks, ("n", "seed"),
                              workers)
    else:
        # loaded once, before any run, so a bad archive is a bad input
        archive = mnist.load_idx(config.mnist_images, config.mnist_labels)
        _check_validation_fits(config, len(archive))
        tasks = [{"scheme": scheme, "seed": seed, "config": config}
                 for scheme in config.schemes for seed in config.seeds]
        try:
            runs, errors = _sweep(
                _mnist_run, tasks, ("scheme", "seed"), workers,
                initializer=_init_mnist_worker, initargs=(archive,))
        finally:
            _init_mnist_worker(None)  # release what an in-process sweep set
    return _report(config, runs, errors, __version__)


# --------------------------------------------------------------------------
# report emission

def _sanitize(obj):
    """NaN/inf -> None so the JSON stays strict; dicts keep insertion order
    (serialization sorts keys anyway)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def report_to_dict(report: ExperimentReport) -> dict:
    doc = {
        "experiment": report.experiment,
        "config": report.config,
        "config_hash": report.config_hash,
        "tool_version": report.tool_version,
        "runs": report.runs,
        "metric_table": report.metric_table,
        "aggregates": report.aggregates,
        "tests": report.tests,
        "correlations": report.correlations,
        "violins": report.violins,
        "errors": report.errors,
    }
    return _sanitize(doc)


def report_from_json(path) -> ExperimentReport:
    """Rebuild a stored report from its config, runs and errors with
    ``run_study``'s builder, keeping its tool_version. Raises
    ConfigurationError, naming the file, unless RunConfig accepts its config,
    its experiment and hash match, and its runs derive every other block."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        experiment, digest, tool_version = (
            doc["experiment"], doc["config_hash"], doc["tool_version"])
        runs, errors = doc.get("runs", []), doc.get("errors", [])
        for name, rows in (("runs", runs), ("errors", errors)):
            if not (isinstance(rows, list)
                    and all(isinstance(row, dict) for row in rows)):
                raise ConfigurationError(f"{name} is not a list of objects")
        config = RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in {**doc["config"]}.items()})
        if config.experiment != experiment or config_hash(config) != digest:
            raise ConfigurationError(f"experiment {experiment!r} or hash "
                                     f"{digest!r} does not match its config")
        report = _report(config, runs, errors, tool_version)
        report_to_dict(report)  # evaluates the metric table and violins
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigurationError(
            f"{path} is not a stored report: {exc!r}") from None
    return report


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json and the CSV files; returns the paths written.

    Emission is byte-stable: keys are sorted, floats use their shortest
    round-trip representation, and the config hash is embedded in every
    file.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: "
                                 f"{exc}") from exc
    path = out_dir / "report.json"
    payload = json.dumps(report_to_dict(report), sort_keys=True, indent=2,
                         allow_nan=False)
    path.write_text(payload + "\n")
    return [path] + _emit_csv_bundle(report, out_dir)


def _csv_cell(value) -> str:
    """Empty for None or NaN, the repr of a float, else the value's str."""
    value = _sanitize(value)
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _emit_csv_bundle(report: ExperimentReport, out_dir: Path) -> list:
    """Write each CSV file: the config-hash stamp, a header line, then one
    line per row."""
    files = {}   # file name -> (header, rows)
    table, violins = report.metric_table, report.violins
    if table is not None:
        header = ("seed", "scheme", "model_kind") + METRIC_COLUMNS
        files["metrics.csv"] = (header, [[row[k] for k in header]
                                         for row in table])
    if report.runs:
        keys = sorted({k for run in report.runs for k in run})
        files["runs.csv"] = (keys, [[run.get(k) for k in keys]
                                    for run in report.runs])
    if violins:
        files["violins.csv"] = (("scheme", "series", "index", "value"), [
            (scheme, series, i, value)
            for scheme in sorted(violins)
            for series in sorted(violins[scheme])
            for i, value in enumerate(violins[scheme][series])])
    for group in sorted(report.correlations):
        payload = report.correlations[group]
        files[f"correlations_{group}.csv"] = (
            ["metric", *payload["columns"]],
            [[name, *row] for name, row in zip(payload["columns"],
                                               payload["matrix"])])
    written = []
    for name, (header, rows) in files.items():
        lines = [f"# config_hash={report.config_hash}", ",".join(header)]
        lines += [",".join(map(_csv_cell, row)) for row in rows]
        path = out_dir / name
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
