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
stages share a random stream. Runs are pure given their task description;
seed-level parallelism uses a bounded process pool and aggregation sorts
by (scheme, seed) first, which makes reports independent of scheduling.
Failed runs are recorded as structured error entries without aborting the
sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import analytic, annotation, metrics, mnist, models, scm
from ._version import __version__
from .errors import ConfigurationError

WORKERS_ENV_VAR = "RCTBIAS_WORKERS"

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


@dataclass(frozen=True)
class RunConfig:
    """Aggregated configuration for one experiment invocation."""

    experiment: str
    seeds: tuple = (0,)
    output_dir: Optional[str] = None
    threshold: float = 0.5
    workers: Optional[int] = None
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
    # training
    learning_rate: Optional[float] = None   # None: per-experiment default
    epochs: Optional[int] = None
    batch_size: Optional[int] = None

    def __post_init__(self):
        if self.experiment not in (CONVERGENCE_EXPERIMENT, MNIST_EXPERIMENT):
            raise ConfigurationError(
                f"experiment must be '{CONVERGENCE_EXPERIMENT}' or "
                f"'{MNIST_EXPERIMENT}', got {self.experiment!r}")
        if len(self.seeds) == 0:
            raise ConfigurationError("seed list must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seed list must be duplicate-free")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        for scheme in self.schemes:
            if scheme not in MNIST_SCHEMES:
                raise ConfigurationError(
                    f"unknown scheme {scheme!r}; choose from "
                    f"{tuple(MNIST_SCHEMES)}")


@dataclass
class ExperimentReport:
    """Everything an experiment produced, aggregates recomputable from the
    embedded per-run records."""

    experiment: str
    config: dict
    config_hash: str
    tool_version: str
    runs: list = field(default_factory=list)
    metric_table: Optional[metrics.MetricTable] = None
    aggregates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)
    violins: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def config_hash(config: RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def resolve_workers(config: RunConfig) -> int:
    if config.workers is not None:
        return config.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR} must be >= 1, got {env!r}")
    return workers


def _subseeds(seed: int, n: int) -> list:
    """Independent stage seeds derived from a run seed."""
    words = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(w) for w in words]


# --------------------------------------------------------------------------
# convergence study

def _convergence_cell(n: int, seed: int, config: RunConfig) -> dict:
    gen_seed, train_seed = _subseeds(seed, 2)
    dataset = scm.sample_rct(scm.ScmConfig(p_t=config.p_t,
                                           sigma2_y=config.sigma2_y,
                                           n=n, seed=gen_seed))
    train_config = models.TrainConfig(
        model_kind="logistic",
        learning_rate=config.learning_rate or 0.05,
        epochs=config.epochs or 10,
        batch_size=config.batch_size or 256,
        seed=train_seed)
    predictor = models.train(dataset, train_config)
    scores = models.predict_soft(predictor, dataset.x)
    report = metrics.teb_report(
        scores, dataset.y, dataset.t,
        reference_ate=analytic.analytic_ad(config.sigma2_y),
        provenance="analytic", threshold=config.threshold)
    quality = models.evaluate_predictions(scores, dataset.y)
    return {
        "n": n, "seed": seed,
        "ead_soft": report.ead_soft, "ead_hard": report.ead_hard,
        "ead_truth": report.ead_truth,
        "teb_soft": report.teb_soft, "teb_hard": report.teb_hard,
        "terb_soft": report.terb_soft, "terb_hard": report.terb_hard,
        "bce": quality.bce, "accuracy": quality.accuracy,
    }


def run_convergence_study(config: RunConfig) -> ExperimentReport:
    """Monte Carlo over (sample size, seed): how the empirical associational
    differences of a logistic scorer and its thresholded version converge to
    their (distinct) analytic limits."""
    report = ExperimentReport(
        experiment=CONVERGENCE_EXPERIMENT, config=asdict(config),
        config_hash=config_hash(config), tool_version=__version__)
    ad_soft = analytic.analytic_ad(config.sigma2_y)
    ad_hard = analytic.analytic_discretized_ad()
    report.aggregates["references"] = {
        "analytic_ad": ad_soft, "analytic_discretized_ad": ad_hard}
    for n in config.sample_sizes:
        for seed in config.seeds:
            try:
                report.runs.append(_convergence_cell(int(n), seed, config))
            except Exception as exc:  # record-and-continue
                report.errors.append({"n": int(n), "seed": seed,
                                      "error": type(exc).__name__,
                                      "message": str(exc)})
    report.runs.sort(key=lambda r: (r["n"], r["seed"]))
    per_n = {}
    for n in sorted({r["n"] for r in report.runs}):
        cells = [r for r in report.runs if r["n"] == n]
        soft = np.array([c["ead_soft"] for c in cells])
        hard = np.array([c["ead_hard"] for c in cells])
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
    return report


# --------------------------------------------------------------------------
# colored-digit study

_WORKER_ARCHIVE: Optional[mnist.MnistArchive] = None


def _init_mnist_worker(images_path: str, labels_path: str) -> None:
    global _WORKER_ARCHIVE
    _WORKER_ARCHIVE = mnist.load_idx(images_path, labels_path)


def _mnist_run(task: dict) -> dict:
    """One (scheme, seed) run; returns a result dict and never raises."""
    try:
        scheme_name = task["scheme"]
        seed = task["seed"]
        kind, n_s = MNIST_SCHEMES[scheme_name]
        gen_seed, ann_seed, val_seed, train_seed = _subseeds(seed, 4)
        spec = mnist.build_population(task["digit_threshold"])
        colored = mnist.generate(_WORKER_ARCHIVE, spec, seed=gen_seed)
        rct = colored.as_rct_dataset()
        scheme = annotation.SamplingScheme(
            kind=kind, n_s=n_s,
            bias_covariate="w" if kind == "covariate_biased" else None,
            bias_value=0 if kind == "covariate_biased" else None,
            seed=ann_seed)
        dataset = annotation.assign_annotation(rct, scheme)
        val_idx = annotation.validation_indices(
            dataset, size=task["validation_size"], seed=val_seed)
        train_config = models.TrainConfig(
            model_kind="convnet", learning_rate=task["learning_rate"],
            epochs=task["epochs"], batch_size=task["batch_size"],
            seed=train_seed)
        predictor = models.train(dataset.annotated, train_config)
        scores = models.predict_soft(predictor, dataset.x)

        val_scores = scores[val_idx]
        val_y = dataset.y[val_idx]
        val_t = dataset.t[val_idx]
        val_quality = models.evaluate_predictions(val_scores, val_y)
        val_teb = metrics.teb_report(val_scores, val_y, val_t,
                                     reference_ate=spec.ate,
                                     provenance="designed",
                                     threshold=task["threshold"])
        full_quality = models.evaluate_predictions(scores, dataset.y)
        full_teb = metrics.teb_report(scores, dataset.y, dataset.t,
                                      reference_ate=spec.ate,
                                      provenance="designed",
                                      threshold=task["threshold"])
        return {
            "ok": True, "scheme": scheme_name, "seed": seed,
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
    except Exception as exc:
        return {"ok": False, "scheme": task.get("scheme"),
                "seed": task.get("seed"), "error": type(exc).__name__,
                "message": str(exc)}


def run_mnist_bias_study(config: RunConfig) -> ExperimentReport:
    """Sweep annotation schemes and seeds on the colored-digit benchmark,
    then test for sampling bias, discretization bias, and the relative
    merit of the evaluation metrics for model selection."""
    if not config.mnist_images or not config.mnist_labels:
        raise ConfigurationError(
            "the colored-digit study requires mnist_images and mnist_labels paths")
    report = ExperimentReport(
        experiment=MNIST_EXPERIMENT, config=asdict(config),
        config_hash=config_hash(config), tool_version=__version__)
    tasks = [{
        "scheme": scheme, "seed": seed,
        "digit_threshold": config.digit_threshold,
        "validation_size": config.validation_size,
        "learning_rate": config.learning_rate or 0.001,
        "epochs": config.epochs or 6,
        "batch_size": config.batch_size or 64,
        "threshold": config.threshold,
    } for scheme in config.schemes for seed in config.seeds]

    workers = resolve_workers(config)
    if workers == 1:
        _init_mnist_worker(config.mnist_images, config.mnist_labels)
        results = [_mnist_run(task) for task in tasks]
    else:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_mnist_worker,
                initargs=(config.mnist_images, config.mnist_labels)) as pool:
            results = list(pool.map(_mnist_run, tasks))

    results.sort(key=lambda r: (str(r.get("scheme")), r.get("seed", -1)))
    table = metrics.MetricTable()
    for res in results:
        if not res.pop("ok"):
            report.errors.append(res)
            continue
        report.runs.append(res)
        table.append(metrics.MetricRow(
            seed=res["seed"], scheme=res["scheme"], model_kind="convnet",
            **{name: res[name] for name in metrics.METRIC_COLUMNS}))
    report.metric_table = table
    if len(table) == 0:
        return report

    _aggregate_mnist(report, config)
    return report


def _aggregate_mnist(report: ExperimentReport, config: RunConfig) -> None:
    runs = report.runs
    table = report.metric_table

    by_scheme = {}
    for scheme in config.schemes:
        rows = [r for r in runs if r["scheme"] == scheme]
        if not rows:
            continue
        by_scheme[scheme] = rows
        terb = np.array([r["terb_full"] for r in rows], dtype=np.float64)
        terb_hard = np.array([r["terb_full_discretized"] for r in rows],
                             dtype=np.float64)
        teb = np.array([r["teb_full"] for r in rows], dtype=np.float64)
        report.violins[scheme] = {
            "terb_soft": [float(v) for v in terb],
            "terb_hard": [float(v) for v in terb_hard],
        }
        agg = {
            "runs": len(rows),
            "mean_teb": float(teb.mean()),
            "std_teb": float(teb.std(ddof=1)) if len(rows) > 1 else 0.0,
            "mean_abs_terb": float(np.abs(terb).mean()),
            "mean_accuracy_full": float(np.mean(
                [r["accuracy_full"] for r in rows])),
        }
        report.aggregates.setdefault("per_scheme", {})[scheme] = agg
        if len(rows) >= 2:
            res = metrics.t_test(teb, mu0=0.0, sides="two")
            report.tests.setdefault("teb_zero", {})[scheme] = asdict(res)

    if len(table) >= 2:
        res = metrics.paired_discretization_test(table, sides="less")
        report.tests["discretization_paired"] = asdict(res)

    for biased, random_ in (("biased_few", "random_few"),
                            ("biased_many", "random_many")):
        if biased in by_scheme and random_ in by_scheme:
            abs_biased = np.abs([r["terb_full"] for r in by_scheme[biased]])
            abs_random = np.abs([r["terb_full"] for r in by_scheme[random_]])
            if len(abs_biased) >= 2 and len(abs_random) >= 2:
                res = metrics.two_sample_t_test(abs_biased, abs_random,
                                                sides="greater")
                entry = asdict(res)
                entry["mean_abs_terb_biased"] = float(abs_biased.mean())
                entry["mean_abs_terb_random"] = float(abs_random.mean())
                report.tests.setdefault("abs_terb_biased_vs_random", {})[
                    f"{biased}_vs_{random_}"] = entry

    groups = {"all": table,
              "random": table.select(lambda r: r.scheme.startswith("random")),
              "biased": table.select(lambda r: r.scheme.startswith("biased"))}
    for name, sub in groups.items():
        if len(sub) < 3:
            continue
        mat = metrics.spearman_matrix(sub)
        report.correlations[name] = {
            "columns": list(mat.columns),
            "matrix": [[float(v) for v in row] for row in mat.values],
            "undefined": list(mat.undefined),
        }
    if len(table) >= 3:
        abs_teb_full = table.column("abs_teb_full")
        report.aggregates["model_selection"] = {
            "spearman_absteb_val_vs_full": metrics.spearman(
                table.column("abs_teb_val"), abs_teb_full),
            "spearman_accuracy_val_vs_full_absteb": metrics.spearman(
                table.column("accuracy_val"), abs_teb_full),
            "spearman_balanced_accuracy_val_vs_full_absteb": metrics.spearman(
                table.column("balanced_accuracy_val"), abs_teb_full),
        }


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
        "metric_table": [asdict(r) for r in report.metric_table.rows]
        if report.metric_table is not None else None,
        "aggregates": report.aggregates,
        "tests": report.tests,
        "correlations": report.correlations,
        "violins": report.violins,
        "errors": report.errors,
    }
    return _sanitize(doc)


def report_from_json(path) -> ExperimentReport:
    """Rehydrate a stored report (enough structure to re-render outputs)."""
    with open(path) as fh:
        doc = json.load(fh)
    table = None
    if doc.get("metric_table") is not None:
        table = metrics.MetricTable(
            [metrics.MetricRow(**row) for row in doc["metric_table"]])
    return ExperimentReport(
        experiment=doc["experiment"], config=doc["config"],
        config_hash=doc["config_hash"], tool_version=doc["tool_version"],
        runs=doc.get("runs", []), metric_table=table,
        aggregates=doc.get("aggregates", {}), tests=doc.get("tests", {}),
        correlations=doc.get("correlations", {}),
        violins=doc.get("violins", {}), errors=doc.get("errors", []))


def emit_report(report: ExperimentReport, out_dir,
                formats=("json", "csv_bundle")) -> list:
    """Write the report files; returns the paths written.

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
    written = []
    for fmt in formats:
        if fmt == "json":
            path = out_dir / "report.json"
            payload = json.dumps(report_to_dict(report), sort_keys=True,
                                 indent=2, allow_nan=False)
            path.write_text(payload + "\n")
            written.append(path)
        elif fmt == "csv_bundle":
            written.extend(_emit_csv_bundle(report, out_dir))
        else:
            raise ConfigurationError(f"unknown report format {fmt!r}")
    return written


def _emit_csv_bundle(report: ExperimentReport, out_dir: Path) -> list:
    written = []
    stamp = f"config_hash={report.config_hash}"
    if report.metric_table is not None:
        path = out_dir / "metrics.csv"
        report.metric_table.to_csv(path, header_comment=stamp)
        written.append(path)
    if report.runs:
        path = out_dir / "runs.csv"
        keys = sorted({k for run in report.runs for k in run})
        with open(path, "w", newline="") as fh:
            fh.write(f"# {stamp}\n")
            fh.write(",".join(keys) + "\n")
            for run in report.runs:
                cells = []
                for key in keys:
                    value = _sanitize(run.get(key))
                    if isinstance(value, float):
                        cells.append(repr(value))
                    elif value is None:
                        cells.append("")
                    else:
                        cells.append(str(value))
                fh.write(",".join(cells) + "\n")
        written.append(path)
    if report.violins:
        path = out_dir / "violins.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"# {stamp}\n")
            fh.write("scheme,series,index,value\n")
            for scheme in sorted(report.violins):
                for series in sorted(report.violins[scheme]):
                    for i, value in enumerate(report.violins[scheme][series]):
                        fh.write(f"{scheme},{series},{i},{repr(float(value))}\n")
        written.append(path)
    for group in sorted(report.correlations):
        payload = report.correlations[group]
        mat = metrics.SpearmanMatrix(
            columns=tuple(payload["columns"]),
            values=np.array([[math.nan if v is None else v for v in row]
                             for row in payload["matrix"]]),
            undefined=tuple(payload.get("undefined", ())))
        path = out_dir / f"correlations_{group}.csv"
        mat.to_csv(path, header_comment=stamp)
        written.append(path)
    return written
