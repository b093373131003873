import json
import subprocess
import sys

import pytest

from rctbias import cli
from rctbias.mnist import CausalMnistDataset


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
        conf = tmp_path / "run.conf"
        conf.write_text("seeds=two\n")
        code, _, err = run_cli([
            "simulate", "--config", str(conf), "--out", str(tmp_path / "x")],
            capsys)
        assert code == 1
        summary = json.loads(err)
        assert summary["status"] == "error"
        assert "two" in summary["message"]

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
        dataset = CausalMnistDataset.load(out)
        assert len(dataset) == 12000
        assert dataset.seed == 5
        assert "designed ATE=0.3" in stdout

    def test_missing_archive_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli([

            "mnist-gen", "--out", str(tmp_path / "x"),
            "--mnist-images", str(tmp_path / "nope.idx"),
            "--mnist-labels", str(tmp_path / "nope2.idx")], capsys)
        assert code == 1
        assert json.loads(err)["status"] == "error"


def test_non_integer_worker_variable_fails(tmp_path, capsys, monkeypatch,
                                           digit_archive_paths):
    images, labels = digit_archive_paths
    monkeypatch.setenv("RCTBIAS_WORKERS", "many")
    code, _, err = run_cli([
        "experiment", "--mnist-images", images, "--mnist-labels", labels,
        "--seeds", "1", "--out", str(tmp_path / "exp")], capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["status"] == "error"
    assert "RCTBIAS_WORKERS" in summary["message"]


def test_zero_worker_variable_fails(tmp_path, capsys, monkeypatch,
                                    digit_archive_paths):
    images, labels = digit_archive_paths
    monkeypatch.setenv("RCTBIAS_WORKERS", "0")
    code, _, err = run_cli([
        "experiment", "--mnist-images", images, "--mnist-labels", labels,
        "--seeds", "1", "--out", str(tmp_path / "exp")], capsys)
    assert code == 1
    summary = json.loads(err)
    assert summary["error"] == "ConfigurationError"
    assert "RCTBIAS_WORKERS must be >= 1" in summary["message"]
    assert not (tmp_path / "exp").exists()


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
