import csv
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from rctbias import ConfigurationError
from rctbias import harness, models
from rctbias.harness import (CONVERGENCE_EXPERIMENT, MNIST_EXPERIMENT,
                             RunConfig, emit_report, report_from_json,
                             run_study)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunConfig:
    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(1, 1))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="nonempty"):
            RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=())

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            RunConfig(experiment=MNIST_EXPERIMENT, schemes=("weird",))

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            RunConfig(experiment="field_study")

    def test_training_settings_default_per_study_and_zero_is_set(self):
        convergence = RunConfig(experiment=CONVERGENCE_EXPERIMENT,
                                batch_size=32).train_config(seed=5)
        assert (convergence.model_kind, convergence.learning_rate,
                convergence.epochs, convergence.batch_size,
                convergence.seed) == ("logistic", 0.05, 10, 32, 5)
        paths = {"mnist_images": "images.idx", "mnist_labels": "labels.idx"}
        digits = RunConfig(experiment=MNIST_EXPERIMENT,
                           **paths).train_config(seed=0)
        assert (digits.model_kind, digits.learning_rate, digits.epochs,
                digits.batch_size) == ("convnet", 0.001, 6, 64)
        with pytest.raises(ConfigurationError, match="epochs must be >= 1"):
            RunConfig(experiment=MNIST_EXPERIMENT, epochs=0, **paths)

    @pytest.mark.parametrize("field, value, named", [
        ("seeds", (0.5,), "seeds must be >= 0, got 0.5"),
        ("seeds", ("3",), "seeds must be >= 0, got 3"),
        ("validation_size", 2.5, "validation_size must be >= 1, got 2.5"),
    ], ids=["fractional-seed", "text-seed", "fractional-validation-size"])
    def test_rejects_non_integer_seeds_and_validation_size(self, field,
                                                           value, named):
        with pytest.raises(ConfigurationError, match=named):
            RunConfig(experiment=MNIST_EXPERIMENT, mnist_images="images.idx",
                      mnist_labels="labels.idx", **{field: value})

    def test_digit_study_requires_archive_paths(self):
        with pytest.raises(ConfigurationError, match="mnist_images"):
            RunConfig(experiment=MNIST_EXPERIMENT, mnist_images="images.idx")

    def test_zero_workers_fails_before_any_run(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT,
                           sample_sizes=(1000,))
        with pytest.raises(ConfigurationError,
                           match="workers must be >= 1, got 0"):
            run_study(config, workers=0)

    def test_default_validation_size_must_fit_the_unannotated_pool(self):
        # by default the validation set is as large as n_s = 1800, which a
        # 3,000-image archive leaves only 1,200 images for; a scheme that
        # cannot be annotated at all (n_s 12,000) is left to its runs
        config = RunConfig(experiment=MNIST_EXPERIMENT,
                           schemes=("biased_many", "random_few"),
                           mnist_images="images.idx",
                           mnist_labels="labels.idx")
        harness._check_validation_fits(config, 3600)
        with pytest.raises(ConfigurationError,
                           match="validation_size 1800 exceeds the "
                                 "unannotated pool of 1200 images that "
                                 "scheme random_few leaves"):
            harness._check_validation_fits(config, 3000)


class TestConvergenceStudy:
    def test_single_cell_report(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0,),
                           sample_sizes=(2000,))
        report = run_study(config)
        assert report.experiment == CONVERGENCE_EXPERIMENT
        assert len(report.runs) == 1
        assert not report.errors
        agg = report.aggregates["per_n"]["2000"]
        assert agg["runs"] == 1
        assert agg["ead_soft_mean"] == report.runs[0]["ead_soft"]
        refs = report.aggregates["references"]
        assert abs(refs["analytic_ad"] - 0.21814856917461345) < 1e-12
        assert abs(refs["analytic_discretized_ad"] - 0.26024993890652326) < 1e-12

    def test_rows_reproducible(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0, 1),
                           sample_sizes=(1500,))
        a = run_study(config)
        b = run_study(config)
        assert a.runs == b.runs
        assert a.config_hash == b.config_hash

    def test_vanishing_noise_removes_discretization_gap(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0,),
                           sample_sizes=(20000,), sigma2_y=1e-8)
        cell = run_study(config).runs[0]
        assert abs(cell["ead_soft"] - cell["ead_hard"]) < 0.01

    def test_aggregates_recomputable_from_runs(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0, 1, 2),
                           sample_sizes=(1000, 3000))
        report = run_study(config)
        for n in (1000, 3000):
            cells = [r for r in report.runs if r["n"] == n]
            agg = report.aggregates["per_n"][str(n)]
            assert agg["ead_soft_mean"] == pytest.approx(
                np.mean([c["ead_soft"] for c in cells]), abs=1e-15)
            assert agg["gap_mean"] == pytest.approx(
                np.mean([c["ead_hard"] - c["ead_soft"] for c in cells]),
                abs=1e-15)


@pytest.fixture(scope="module")
def small_study(digit_archive_paths):
    images, labels = digit_archive_paths
    config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(0, 1),
                       schemes=("random_few", "biased_few"),
                       mnist_images=images, mnist_labels=labels, epochs=1)
    return config, run_study(config, workers=1)


@pytest.mark.slow
class TestMnistStudy:
    def test_structure(self, small_study):
        config, report = small_study
        assert not report.errors
        assert len(report.metric_table) == 4
        schemes = {row["scheme"] for row in report.metric_table}
        assert schemes == {"random_few", "biased_few"}
        assert set(report.violins) == schemes
        assert "discretization_paired" in report.tests
        assert "teb_zero" in report.tests
        assert "biased_few_vs_random_few" in \
            report.tests["abs_terb_biased_vs_random"]
        assert report.aggregates["per_scheme"]["random_few"]["runs"] == 2

    def test_rows_fully_populated(self, small_study):
        _, report = small_study
        for name in ("bce_val", "accuracy_val", "abs_teb_full",
                     "abs_teb_full_discretized"):
            col = [row[name] for row in report.metric_table]
            assert np.isfinite(col).all()

    def test_parallel_and_order_invariance(self, digit_archive_paths,
                                           small_study):
        # shuffled seed order, two workers: identical rows after sorting
        images, labels = digit_archive_paths
        _, base = small_study
        config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(1, 0),
                           schemes=("random_few", "biased_few"),
                           mnist_images=images, mnist_labels=labels,
                           epochs=1)
        report = run_study(config, workers=2)
        assert report.metric_table == base.metric_table
        assert report.runs == base.runs

    def test_infeasible_scheme_recorded_not_fatal(self, digit_archive_paths):
        # many-shot needs 12000 eligible samples; the small archive cannot
        # provide them, so those cells fail while the rest complete
        images, labels = digit_archive_paths
        config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(0,),
                           schemes=("random_few", "biased_many"),
                           mnist_images=images, mnist_labels=labels,
                           epochs=1)
        report = run_study(config, workers=1)
        assert len(report.errors) == 1
        assert report.errors[0]["scheme"] == "biased_many"
        assert report.errors[0]["error"] == "SamplingError"
        assert [r["scheme"] for r in report.runs] == ["random_few"]


def test_all_runs_failed_still_emits_an_empty_table(tmp_path,
                                                    digit_archive_paths):
    # many-shot annotation cannot be met by the small archive
    images, labels = digit_archive_paths
    config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(0,),
                       schemes=("biased_many",), mnist_images=images,
                       mnist_labels=labels, epochs=1)
    report = run_study(config, workers=1)
    assert [e["error"] for e in report.errors] == ["SamplingError"]
    assert report.metric_table == []
    emit_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["metric_table"] == []
    assert doc["violins"] == {}
    assert "workers" not in doc["config"] and "output_dir" not in doc["config"]


def _echo_or_raise(task):
    if task["fails"]:
        raise ValueError(f"task {task['key']} fails")
    return task["key"]


def test_pool_is_given_the_largest_task_first(monkeypatch):
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording(pool, fn, task):
        submitted.append(task["key"])
        return submit(pool, fn, task)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    costs = {"a": 1, "b": 5, "c": 3, "d": 5, "e": 2, "f": 0}
    tasks = [{"key": key, "cost": cost, "fails": key in ("b", "e")}
             for key, cost in reversed(costs.items())]
    results, errors = harness._sweep(_echo_or_raise, tasks, ("key",),
                                     workers=2, cost=lambda t: t["cost"])
    # descending cost, ties in identity order
    assert submitted == ["b", "d", "c", "e", "a", "f"]
    # results and errors still come back in identity order
    assert results == ["a", "c", "d", "f"]
    assert [(e["key"], e["error"], e["message"]) for e in errors] == [
        ("b", "ValueError", "task b fails"),
        ("e", "ValueError", "task e fails")]


def _blas_threads_after_a_cell(task):
    harness._convergence_cell(task)
    return (models._numpy_openblas()[0](),
            len(os.listdir("/proc/self/task")))


def test_pool_workers_start_no_blas_threads():
    # workers are forked with numpy's OpenBLAS at one thread, so a run
    # never restarts the BLAS threads that the fork stopped
    blas = models._numpy_openblas()
    if blas is None or not os.path.isdir("/proc/self/task") \
            or multiprocessing.get_start_method() != "fork":
        pytest.skip("needs numpy's bundled OpenBLAS, /proc and fork")
    before = blas[0]()
    config = RunConfig(experiment=CONVERGENCE_EXPERIMENT)
    tasks = [{"n": 1000, "seed": seed, "config": config} for seed in (0, 1)]
    results, errors = harness._sweep(_blas_threads_after_a_cell, tasks,
                                     ("n", "seed"), workers=2,
                                     cost=lambda task: task["n"])
    assert errors == []
    assert results == [(1, 1), (1, 1)]   # one BLAS thread, one OS thread
    assert blas[0]() == before


def test_simulate_report_does_not_depend_on_the_worker_count(tmp_path):
    # cells of three sizes on two workers run largest first; the report and
    # its re-rendering are the same files as in one process
    config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0, 1, 2),
                       sample_sizes=(1000, 4000, 2000))
    trees = []
    for workers in (1, 2):
        out, again = tmp_path / f"w{workers}", tmp_path / f"w{workers}-again"
        emit_report(run_study(config, workers=workers), out)
        emit_report(report_from_json(out / "report.json"), again)
        trees += [{p.name: p.read_bytes() for p in tree.iterdir()}
                  for tree in (out, again)]
    assert set(trees[0]) == {"report.json", "runs.csv"}
    assert all(tree == trees[0] for tree in trees)


class _Interrupt(BaseException):
    """Escapes a sweep's record-and-continue, as an interrupt does."""


@pytest.mark.parametrize("ending", ["returns", "raises"])
def test_one_worker_sweep_releases_the_archive(monkeypatch, ending,
                                               digit_archive_paths):
    images, labels = digit_archive_paths
    config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(0,),
                       schemes=("biased_many",), mnist_images=images,
                       mnist_labels=labels, epochs=1)
    if ending == "raises":
        def interrupted(task):
            assert harness._WORKER_ARCHIVE is not None
            raise _Interrupt
        monkeypatch.setattr(harness, "_mnist_run", interrupted)
        with pytest.raises(_Interrupt):
            run_study(config, workers=1)
    else:
        assert run_study(config, workers=1).errors
    assert harness._WORKER_ARCHIVE is None


@pytest.mark.parametrize("experiment", [CONVERGENCE_EXPERIMENT,
                                        MNIST_EXPERIMENT])
def test_a_report_derives_every_block_from_its_six_fields(
        tmp_path, experiment, digit_archive_paths):
    images, labels = digit_archive_paths
    study = {CONVERGENCE_EXPERIMENT: {"sample_sizes": (1000, 1500)},
             MNIST_EXPERIMENT: {"schemes": ("random_few",), "epochs": 1,
                                "mnist_images": images,
                                "mnist_labels": labels}}[experiment]
    emit_report(run_study(RunConfig(experiment=experiment, seeds=(0, 1, 2),
                                    **study)), tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    fields = ("experiment", "config", "config_hash", "tool_version", "runs",
              "errors")
    derived = {"metric_table", "aggregates", "tests", "correlations",
               "violins"}
    assert set(doc) == set(fields) | derived
    if experiment == MNIST_EXPERIMENT:
        assert all(doc[block] for block in derived)
    rebuilt = harness.ExperimentReport(**{name: doc[name] for name in fields})
    assert harness.report_to_dict(rebuilt) == doc


class TestEmission:
    def make_report(self):
        config = RunConfig(experiment=CONVERGENCE_EXPERIMENT, seeds=(0, 1),
                           sample_sizes=(1200,))
        return run_study(config)

    def test_emission_is_byte_stable(self, tmp_path):
        report = self.make_report()
        first = emit_report(report, tmp_path / "a")
        second = emit_report(report, tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert file_digest(pa) == file_digest(pb)

    def test_empty_report_is_valid_json(self, tmp_path):
        report = harness.ExperimentReport(
            experiment=CONVERGENCE_EXPERIMENT,
            config=asdict(RunConfig(experiment=CONVERGENCE_EXPERIMENT)),
            config_hash="x", tool_version="0")
        assert emit_report(report, tmp_path) == [tmp_path / "report.json"]
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["runs"] == []
        assert doc["config_hash"] == "x"

    def test_json_round_trip_re_renders_identically(self, tmp_path):
        report = self.make_report()
        first = emit_report(report, tmp_path / "orig")
        loaded = report_from_json(tmp_path / "orig" / "report.json")
        second = emit_report(loaded, tmp_path / "again")
        for pa, pb in zip(first, second):
            assert file_digest(pa) == file_digest(pb)

    def test_metric_csv_round_trip(self, tmp_path, digit_archive_paths):
        images, labels = digit_archive_paths
        config = RunConfig(experiment=MNIST_EXPERIMENT, seeds=(0,),
                           schemes=("random_few",), mnist_images=images,
                           mnist_labels=labels, epochs=1)
        report = run_study(config, workers=1)
        emit_report(report, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={report.config_hash}"
        (record,) = csv.DictReader(lines[1:])
        (row,) = report.metric_table
        assert (int(record["seed"]), record["scheme"]) == (0, "random_few")
        for name in harness.METRIC_COLUMNS:
            assert float(record[name]) == row[name]

    def test_digit_bundle_has_one_line_ending_and_empty_nan_cells(
            self, tmp_path):
        rng = np.random.default_rng(16)
        runs = [{"scheme": "random_few", "seed": seed,
                 **dict(zip(harness.METRIC_COLUMNS, rng.random(8).tolist())),
                 "bce_val": 0.5,   # constant, so its correlations are NaN
                 "teb_full": 0.05 * seed, "terb_full": 0.1 * seed,
                 "terb_full_discretized": 0.2}
                for seed in range(4)]
        config = RunConfig(experiment=MNIST_EXPERIMENT, mnist_images="x",
                           mnist_labels="y")
        report = harness.ExperimentReport(
            experiment=MNIST_EXPERIMENT, config=asdict(config),
            config_hash="x", tool_version="0", runs=runs)
        paths = emit_report(report, tmp_path)
        assert [p.name for p in paths] == [
            "report.json", "metrics.csv", "runs.csv", "violins.csv",
            "correlations_all.csv", "correlations_random.csv"]
        for path in paths:
            assert b"\r" not in path.read_bytes(), path.name
        lines = (tmp_path / "correlations_all.csv").read_text().splitlines()
        assert lines[1] == "metric," + ",".join(harness.METRIC_COLUMNS)
        assert lines[2] == "bce_val,1.0" + "," * 7

