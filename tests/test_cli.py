import csv
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from rctbias import cli, harness
from rctbias.mnist import read_idx

_CONVERGENCE_CELL = harness._convergence_cell


def _cell_whose_worker_dies(task):
    """A convergence cell whose worker process exits abruptly on seed 1."""
    if task["seed"] == 1:
        os._exit(1)
    return _CONVERGENCE_CELL(task)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, stdout, _ = run_cli([
            "simulate", "--sizes", "1500", "--seeds", "2",
            "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["experiment"] == "convergence"
        assert len(doc["runs"]) == 2
        assert "report.json" in stdout

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("sizes=1500\nseeds=3\np_t=0.4\n")
        out = tmp_path / "sim"
        code, _, _ = run_cli([
            "simulate", "--config", str(conf), "--seeds", "1",
            "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["runs"]) == 1          # flag beat the file
        assert doc["config"]["p_t"] == 0.4    # file value applied

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("sizzes=1500\n")
        code, _, err = run_cli([
            "simulate", "--config", str(conf), "--out", str(tmp_path / "x")],
            capsys)
        assert code == 1
        assert json.loads(err)["status"] == "error"

    def test_non_integer_config_value_fails(self, tmp_path, capsys):
        # the same bad value as a config file entry and as a flag
        conf = tmp_path / "run.conf"
        conf.write_text("seeds=two\n")
        for given in (["--config", str(conf)], ["--seeds", "two"]):
            code, _, err = run_cli([
                "simulate", *given, "--out", str(tmp_path / "x")], capsys)
            assert code == 1
            summary = json.loads(err)
            assert summary["status"] == "error"
            assert "two" in summary["message"]
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--sizez", "1500"], "--sizez"),     # unknown flag
        (["simulate", "--sizes"], "--sizes"),             # value missing
        ([], "command"),                                  # no subcommand
    ])
    def test_usage_error_fails_with_json(self, capsys, argv, named):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        summary = json.loads(err)
        assert summary["status"] == "error"
        assert named in summary["message"]

    @pytest.mark.parametrize("argv, named", [
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--learning-rate", "0"], "learning_rate must be > 0, got 0.0"),
        (["--sizes", "0"], "n must be an integer >= 1, got 0"),
        (["--sizes", "-5"], "n must be an integer >= 1, got -5"),
        (["--p-t", "2"], "p_t must satisfy 0 < p_t < 1, got 2.0"),
        (["--size", "1200"], "--size"),      # flags are never abbreviated
        (["--seed-list", "1,-1"], "seeds must be >= 0, got -1"),
        (["--threshold", "2"], "0 < threshold < 1, got 2.0"),
        (["--threshold", "0"], "0 < threshold < 1, got 0.0"),
        (["--sizes", "1000,1000"], "sample_sizes must be a nonempty, "
         "duplicate-free list, got [1000, 1000]"),
        (["--sizes", ","], "sample_sizes must be a nonempty, duplicate-free "
         "list, got []"),
        (["--learning-rate", "inf"], "learning_rate must be > 0, got inf"),
    ])
    def test_bad_study_value_fails_before_any_run(self, tmp_path, capsys,
                                                  argv, named):
        out = tmp_path / "sim"
        code, _, err = run_cli(["simulate", "--seeds", "1", *argv,
                                "--out", str(out)], capsys)
        assert code == 1
        summary = json.loads(err)
        assert summary["status"] == "error"
        assert named in summary["message"]
        assert not out.exists()

    def test_every_option_as_flags_or_config_file(self, tmp_path, capsys):
        options = {"sizes": "1000,1500", "seeds": "5", "seed_list": "3,1",
                   "p_t": "0.4", "sigma2_y": "2.0", "learning_rate": "0.2",
                   "epochs": "3", "batch_size": "128", "threshold": "0.6",
                   "workers": "1"}
        assert {o.name for o in cli.OPTIONS if "simulate" in o.commands} \
            == set(options) | {"out"}
        out = tmp_path / "flags"
        flags = [arg for name, value in options.items()
                 for arg in ("--" + name.replace("_", "-"), value)]
        assert run_cli(["simulate", *flags, "--out", str(out)], capsys)[0] == 0
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{name}={value}\n"
                                for name, value in options.items())
                        + f"out={tmp_path / 'file'}\n")
        assert run_cli(["simulate", "--config", str(conf)], capsys)[0] == 0
        doc = (out / "report.json").read_bytes()
        assert doc == (tmp_path / "file" / "report.json").read_bytes()
        config = json.loads(doc)["config"]
        assert config["seeds"] == [3, 1]                  # seed_list wins
        assert config["sample_sizes"] == [1000, 1500]
        assert config["learning_rate"] == 0.2 and config["batch_size"] == 128
        # a key of another subcommand is still rejected
        conf.write_text("schemes=random_few\n")
        code, _, err = run_cli(["simulate", "--config", str(conf),
                                "--out", str(tmp_path / "x")], capsys)
        assert code == 1
        assert "schemes" in json.loads(err)["message"]

    def test_report_does_not_depend_on_workers_or_output_dir(self, tmp_path,
                                                             capsys):
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}"
            code, _, _ = run_cli([
                "simulate", "--sizes", "1000,1500", "--seeds", "2",
                "--workers", workers, "--out", str(out)], capsys)
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_pool_has_no_more_processes_than_tasks(self, tmp_path, capsys,
                                                   monkeypatch):
        # a stand-in pool that records its size and runs each call here,
        # so no process starts however large --workers is
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        reports = []
        for workers in ("1", "100000"):
            out = tmp_path / f"workers-{workers}"
            code, _, _ = run_cli([
                "simulate", "--sizes", "1000,1500", "--seeds", "1",
                "--workers", workers, "--out", str(out)], capsys)
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        assert sizes == [2]
        assert reports[0] == reports[1]

    def test_one_task_runs_in_this_process(self, tmp_path, capsys,
                                           monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}"
            code, _, _ = run_cli([
                "simulate", "--sizes", "1000", "--seeds", "1",
                "--workers", workers, "--out", str(out)], capsys)
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_dead_worker_recorded_and_sweep_continues(self, tmp_path, capsys,
                                                      monkeypatch):
        # the pool forks, so its workers run the patched cell
        monkeypatch.setattr(harness, "_convergence_cell",
                            _cell_whose_worker_dies)
        out = tmp_path / "sim"
        code, _, err = run_cli([
            "simulate", "--sizes", "1000,1500", "--seed-list", "0,1,2",
            "--workers", "2", "--out", str(out)], capsys)
        assert code == 3
        assert json.loads(err)["status"] == "partial"
        doc = json.loads((out / "report.json").read_text())
        # the cells the broken pool left unfinished are rerun alone, so
        # only the two that kill their own worker are lost
        runs = [(r["n"], r["seed"]) for r in doc["runs"]]
        assert runs == [(n, seed) for n in (1000, 1500) for seed in (0, 2)]
        failed = [(e["n"], e["seed"]) for e in doc["errors"]]
        assert failed == [(1000, 1), (1500, 1)]
        assert {e["error"] for e in doc["errors"]} == {"BrokenProcessPool"}

    def test_missing_output_dir_fails(self, capsys):
        code, _, err = run_cli(["simulate", "--seeds", "1"], capsys)
        assert code == 1
        summary = json.loads(err)
        assert summary["status"] == "error"
        assert "out" in summary["message"]


class TestMnistGen:
    def test_generates_loadable_dataset(self, tmp_path, capsys,
                                         digit_archive_paths):
        images, labels = digit_archive_paths
        out = tmp_path / "colored"
        code, stdout, _ = run_cli([
            "mnist-gen", "--d", "3", "--seed", "5", "--out", str(out),
            "--mnist-images", images, "--mnist-labels", labels], capsys)
        assert code == 0
        assert read_idx(out / "images.idx").shape == (12000, 3, 28, 28)
        with open(out / "metadata.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 12000
        assert json.loads((out / "spec.json").read_text())["seed"] == 5
        assert "designed ATE=0.3" in stdout

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range_fails_cleanly(self, tmp_path, capsys, seed,
                                             digit_archive_paths):
        images, labels = digit_archive_paths
        out = tmp_path / "colored"
        code, _, err = run_cli([
            "mnist-gen", "--seed", seed, "--out", str(out),
            "--mnist-images", images, "--mnist-labels", labels], capsys)
        assert code == 1
        summary = json.loads(err)
        assert summary["status"] == "error"
        assert f"unsigned 64-bit integer, got {seed}" in summary["message"]
        assert not out.exists()

    def test_missing_archive_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli([

            "mnist-gen", "--out", str(tmp_path / "x"),
            "--mnist-images", str(tmp_path / "nope.idx"),
            "--mnist-labels", str(tmp_path / "nope2.idx")], capsys)
        assert code == 1
        assert json.loads(err)["status"] == "error"


@pytest.mark.parametrize("argv, named", [
    (["--d", "9"], "digit threshold must be an integer in 1..7, got 9"),
    (["--validation-size", "0"], "validation_size must be >= 1, got 0"),
    (["--schemes", "random_few", "--validation-size", "100000"],
     "validation_size 100000 exceeds the unannotated pool of 10200 images "
     "that scheme random_few leaves in an archive of 12000"),
    (["--schemes", "random_few,random_few"], "schemes must be a nonempty, "
     "duplicate-free list, got ['random_few', 'random_few']"),
    (["--schemes", ","], "schemes must be a nonempty, duplicate-free list, "
     "got []"),
])
def test_bad_digit_study_value_fails_before_any_run(tmp_path, capsys, argv,
                                                    named,
                                                    digit_archive_paths):
    images, labels = digit_archive_paths
    out = tmp_path / "exp"
    code, _, err = run_cli([
        "experiment", "--mnist-images", images, "--mnist-labels", labels,
        "--seeds", "1", *argv, "--out", str(out)], capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["status"] == "error"
    assert named in summary["message"]
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("archive", ["missing", "corrupt"])
def test_bad_digit_archive_fails_before_any_run(tmp_path, capsys, archive,
                                                workers):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    if archive == "corrupt":
        # an images header for 2 x 28 x 28 bytes, followed by only 10
        images.write_bytes(bytes([0, 0, 8, 3, 0, 0, 0, 2, 0, 0, 0, 28,
                                  0, 0, 0, 28]) + bytes(10))
        labels.write_bytes(bytes([0, 0, 8, 1, 0, 0, 0, 2, 3, 7]))
    out = tmp_path / "exp"
    code, _, err = run_cli([
        "experiment", "--mnist-images", str(images), "--mnist-labels",
        str(labels), "--seeds", "2", "--epochs", "1", "--workers", workers,
        "--out", str(out)], capsys)
    assert code == 1
    assert json.loads(err)["status"] == "error"
    assert not out.exists()


def _stored_report(**blocks) -> bytes:
    """A stored convergence report's identity fields, and ``blocks``."""
    return json.dumps({"experiment": "convergence", "config": {},
                       "config_hash": "x", "tool_version": "0",
                       **blocks}).encode()


@pytest.mark.parametrize("command, flag, content, named", [
    ("report", "--input", b"not json\n", "JSONDecodeError"),
    ("report", "--input", b"[1, 2]\n", "TypeError"),
    ("report", "--input", b'{"config": {}}\n', "KeyError('experiment')"),
    ("report", "--input", b"\xff\xfe{}\n", "UnicodeDecodeError"),
    ("simulate", "--config", b"seeds=1\nsizes=\xff\n", "not UTF-8 text"),
    ("report", "--input", _stored_report(runs=5),
     "runs is not a list of objects"),
    ("report", "--input", _stored_report(errors=[3]),
     "errors is not a list of objects"),
], ids=["not-json", "json-list", "no-experiment", "report-not-utf8",
        "config-not-utf8", "runs-not-a-list", "errors-not-objects"])
def test_unreadable_input_file_fails_with_json(tmp_path, capsys, command,
                                               flag, content, named):
    given = tmp_path / "given"
    given.write_bytes(content)
    out = tmp_path / "out"
    code, _, err = run_cli([command, flag, str(given), "--out", str(out)],
                           capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["error"] == "ConfigurationError"
    assert str(given) in summary["message"]
    assert named in summary["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def stored_reports(tmp_path_factory, digit_archive_paths):
    """Output directories of a real ``simulate`` and a real ``experiment``
    sweep; the digit sweep runs on two workers and has enough runs per
    scheme group for every correlations file."""
    images, labels = digit_archive_paths
    out = tmp_path_factory.mktemp("stored")
    argvs = {
        "simulate": ["simulate", "--sizes", "1000,1500", "--seeds", "2"],
        "experiment": ["experiment", "--mnist-images", images,
                       "--mnist-labels", labels, "--seeds", "3",
                       "--epochs", "1", "--workers", "2"],
    }
    for command, argv in argvs.items():
        assert cli.main([*argv, "--out", str(out / command)]) == 0
    return {command: out / command for command in argvs}


def _files(directory) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_digit_report_re_renders_every_file(tmp_path, capsys, stored_reports):
    stored = stored_reports["experiment"]
    assert {"metrics.csv", "violins.csv", "correlations_all.csv",
            "correlations_random.csv", "correlations_biased.csv"} \
        <= set(_files(stored))
    code, _, _ = run_cli(["report", "--input", str(stored / "report.json"),
                          "--out", str(tmp_path / "again")], capsys)
    assert code == 0
    assert _files(tmp_path / "again") == _files(stored)


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("value", [[], 1, [["all", 5]]],
                         ids=["list", "number", "pairs"])
def test_report_recomputes_the_derived_blocks(tmp_path, capsys, command,
                                              value, stored_reports):
    stored = stored_reports[command]
    doc = json.loads((stored / "report.json").read_text())
    for block in ("aggregates", "tests", "correlations", "metric_table",
                  "violins"):
        doc[block] = value
    given = tmp_path / "given.json"
    given.write_text(json.dumps(doc))
    code, _, _ = run_cli(["report", "--input", str(given),
                          "--out", str(tmp_path / "again")], capsys)
    assert code == 0
    assert _files(tmp_path / "again") == _files(stored)


def _without_seed(doc):
    del doc["runs"][0]["seed"]


def _edit_config(**fields):
    return lambda doc: doc["config"].update(fields)


def _edit_runs(**fields):
    def edit(doc):
        for run in doc["runs"]:
            run.update(fields)
    return edit


def _edit_first_run(**fields):
    return lambda doc: doc["runs"][0].update(fields)


@pytest.mark.parametrize("command, edit, named", [
    ("experiment", _without_seed, "KeyError('seed')"),
    ("experiment", lambda doc: doc.update(runs=[{}]), "KeyError('scheme')"),
    ("simulate", lambda doc: doc.update(runs=[{}]), "KeyError('n')"),
    ("experiment", lambda doc: doc.update(config_hash="0" * 16),
     "hash '0000000000000000' does not match its config"),
    ("simulate", lambda doc: doc.update(experiment="mnist_bias"),
     "experiment 'mnist_bias' or hash"),
    ("experiment", _edit_config(epochs=0), "epochs must be >= 1, got 0"),
    ("simulate", _edit_config(seeds=[0.5]), "seeds must be >= 0, got 0.5"),
    ("simulate", _edit_config(workers=2), "unexpected keyword argument"),
    ("simulate", lambda doc: doc.update(config=[1]), "not a mapping"),
    ("experiment", lambda doc: doc["runs"][0].update(
        terb_full_discretized="abc"), "could not convert string to float"),
    ("experiment", lambda doc: doc["runs"][0].update(scheme=5),
     "KeyError(5)"),
    ("experiment", _edit_runs(accuracy_full=[0.5]), "with a sequence"),
    ("simulate", _edit_runs(ead_soft=[0.5]), "with a sequence"),
    # fields that nothing derives from are checked by type
    ("experiment", _edit_first_run(seed="abc"),
     "run field seed must be an integer >= 0, got 'abc'"),
    ("experiment", _edit_first_run(seed=[]),
     "run field seed must be an integer >= 0, got []"),
    ("experiment", _edit_first_run(seed={}),
     "run field seed must be an integer >= 0, got {}"),
    ("experiment", _edit_first_run(final_train_loss="abc"),
     "run field final_train_loss must be a number or null, got 'abc'"),
    ("experiment", _edit_first_run(teb_full_discretized="abc"),
     "run field teb_full_discretized must be a number or null, got 'abc'"),
    ("experiment", _edit_first_run(ead_truth_full="abc"),
     "run field ead_truth_full must be a number or null, got 'abc'"),
    ("experiment", _edit_first_run(designed_ate=True),
     "run field designed_ate must be a number or null, got True"),
    ("simulate", _edit_first_run(seed="abc"),
     "run field seed must be an integer >= 0, got 'abc'"),
    ("simulate", _edit_first_run(seed=[]),
     "run field seed must be an integer >= 0, got []"),
    ("simulate", _edit_first_run(seed={}),
     "run field seed must be an integer >= 0, got {}"),
    ("simulate", _edit_first_run(seed=-1),
     "run field seed must be an integer >= 0, got -1"),
    ("simulate", _without_seed, "a run has no seed"),
    ("simulate", _edit_runs(n=0), "run field n must be an integer >= 1, "
     "got 0"),
    ("simulate", _edit_runs(n=1000.0), "run field n must be an integer "
     ">= 1, got 1000.0"),
    ("simulate", _edit_first_run(bce=[1, 2]),
     "run field bce must be a number or null, got [1, 2]"),
    ("simulate", _edit_first_run(accuracy="abc"),
     "run field accuracy must be a number or null, got 'abc'"),
    ("simulate", _edit_first_run(teb_soft={}),
     "run field teb_soft must be a number or null, got {}"),
    # the runs and errors are the config's tasks, each once
    ("simulate", _edit_first_run(n=5000),
     "missing [(1000, 0)], extra [(5000, 0)]"),
    ("experiment", lambda doc: doc["runs"].append(doc["runs"][0]),
     "missing [], extra [('biased_few', 0)]"),
    ("simulate", lambda doc: doc["errors"].append({"foo": 1}),
     "a failed run has no n"),
    ("experiment", lambda doc: doc["errors"].append(
        {"scheme": "random_few", "seed": 2, "error": "X", "message": ""}),
     "missing [], extra [('random_few', 2)]"),
    ("simulate", lambda doc: doc["runs"].pop(), "missing [(1500, 1)], "
     "extra []"),
    ("simulate", lambda doc: doc["errors"].append(
        {"n": 1000.0, "seed": 0, "error": "X", "message": ""}),
     "failed run field n must be an integer >= 1, got 1000.0"),
], ids=["digit-run-without-seed", "digit-run-empty", "cell-empty",
        "edited-hash", "other-experiment", "epochs-zero", "fractional-seed",
        "unknown-config-field", "config-not-an-object", "text-terb",
        "unknown-scheme", "digit-metric-a-list", "cell-metric-a-list",
        "digit-seed-text", "digit-seed-list", "digit-seed-object",
        "digit-final-loss-text", "digit-teb-discretized-text",
        "digit-ead-truth-text", "digit-field-boolean", "cell-seed-text",
        "cell-seed-list", "cell-seed-object", "cell-seed-negative",
        "cell-without-seed", "cell-n-zero", "cell-n-float",
        "cell-field-a-list", "cell-field-text", "cell-field-object",
        "cell-outside-the-sweep", "digit-run-twice", "error-without-keys",
        "digit-run-and-error", "cell-missing", "error-n-float"])
def test_malformed_stored_report_fails_before_output(tmp_path, capsys,
                                                     command, edit, named,
                                                     stored_reports):
    doc = json.loads((stored_reports[command] / "report.json").read_text())
    edit(doc)
    given = tmp_path / "given.json"
    given.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, _, err = run_cli(["report", "--input", str(given),
                            "--out", str(out)], capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["error"] == "ConfigurationError"
    assert str(given) in summary["message"]
    assert named in summary["message"]
    assert not out.exists()


def test_report_with_failed_runs_exits_3(tmp_path, capsys, stored_reports):
    doc = json.loads((stored_reports["simulate"] / "report.json").read_text())
    run = doc["runs"].pop()
    doc["errors"] = [{"n": run["n"], "seed": run["seed"],
                      "error": "TrainingError", "message": "diverged"}]
    given = tmp_path / "given.json"
    given.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, err = run_cli(["report", "--input", str(given),
                                 "--out", str(out)], capsys)
    assert code == 3
    assert json.loads(err) == {"status": "partial",
                               "failed_runs": doc["errors"]}
    assert f"wrote {out / 'report.json'}" in stdout
    assert (f"runs: 3 ok, 1 failed (config_hash={doc['config_hash']})"
            in stdout)
    assert json.loads((out / "report.json").read_text())["errors"] == \
        doc["errors"]


def test_negative_workers_flag_fails(tmp_path, capsys):
    code, _, err = run_cli([
        "simulate", "--sizes", "1500", "--seeds", "1", "--workers", "-3",
        "--out", str(tmp_path / "sim")], capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["error"] == "ConfigurationError"
    assert "workers must be >= 1, got -3" in summary["message"]
    assert not (tmp_path / "sim").exists()


def test_zero_workers_in_config_file_fails(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("sizes=1500\nseeds=1\nworkers=0\n")
    code, _, err = run_cli([
        "simulate", "--config", str(conf), "--out", str(tmp_path / "sim")],
        capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["error"] == "ConfigurationError"
    assert "workers must be >= 1, got 0" in summary["message"]
    assert not (tmp_path / "sim").exists()


@pytest.mark.slow
class TestExperiment:
    def test_end_to_end(self, tmp_path, capsys, digit_archive_paths):
        images, labels = digit_archive_paths
        out = tmp_path / "exp"
        code, stdout, _ = run_cli([
            "experiment", "--mnist-images", images, "--mnist-labels", labels,
            "--schemes", "random_few", "--seeds", "1", "--epochs", "1",
            "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["experiment"] == "mnist_bias"
        assert len(doc["metric_table"]) == 1
        assert (out / "metrics.csv").exists()
        assert (out / "violins.csv").exists()

    def test_partial_failure_exit_code(self, tmp_path, capsys,
                                       digit_archive_paths):
        images, labels = digit_archive_paths
        out = tmp_path / "exp2"
        code, _, err = run_cli([
            "experiment", "--mnist-images", images, "--mnist-labels", labels,
            "--schemes", "random_few,biased_many", "--seeds", "1",
            "--epochs", "1", "--out", str(out)], capsys)
        assert code == 3
        summary = json.loads(err)
        assert summary["status"] == "partial"
        assert summary["failed_runs"][0]["scheme"] == "biased_many"
        # partial results still written
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["runs"]) == 1

    def test_report_does_not_depend_on_the_blas_thread_count(
            self, tmp_path, digit_archive_paths):
        images, labels = digit_archive_paths
        package_root = str(Path(cli.__file__).parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([
                sys.executable, "-m", "rctbias.cli", "experiment",
                "--mnist-images", images, "--mnist-labels", labels,
                "--schemes", "random_few", "--seeds", "1", "--epochs", "1",
                "--validation-size", "200", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestReportCommand:
    def test_re_render(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli(["simulate", "--sizes", "1200", "--seeds", "1",
                 "--out", str(out)], capsys)
        rerender = tmp_path / "again"
        code, _, _ = run_cli([
            "report", "--input", str(out / "report.json"),
            "--out", str(rerender)], capsys)
        assert code == 0
        assert (rerender / "report.json").read_bytes() == \
            (out / "report.json").read_bytes()
        assert (rerender / "runs.csv").read_bytes() == \
            (out / "runs.csv").read_bytes()


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "rctbias.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
