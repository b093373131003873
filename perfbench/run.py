"""Benchmark of the rctbias command-line sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` and
driven through ``rctbias.cli.main`` as a user would run it; the workload seed
fixes the synthetic digit archive and the study seeds, and the program sees
only the IDX files the benchmark writes.

``--trace 0`` times whole sweeps, repeated until ``--seconds`` have passed
(at least two, so that report.json can be compared across repeats), and
prints the end-to-end metrics. ``--trace 1`` runs the convnet kernel
microbenchmarks, then alternates untraced sweeps with traced ones and prints
the per-layer metrics. Both print an environment line, a readable table and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark sets no BLAS or worker environment variables: the program runs
with the defaults a user gets. Scratch files go under ``.perfbench_work/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import glyphs
import kernels
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_SWEEPS = 2
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "RCTBIAS_WORKERS")


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the program, write the archive to DIR "
                             "and exit (one timed set-up)")
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "rctbias" / "__init__.py").is_file():
        raise BenchError(f"no rctbias sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from rctbias import annotation, cli, harness, metrics, mnist, models, scm
    return {"annotation": annotation, "cli": cli, "harness": harness,
            "metrics": metrics, "mnist": mnist, "models": models, "scm": scm}


def archive_paths(directory):
    return str(directory / "images.idx"), str(directory / "labels.idx")


def write_archive(workload, seed, directory, mnist):
    """Render the workload's digit archive and write it as IDX files."""
    directory.mkdir(parents=True, exist_ok=True)
    images, labels = glyphs.render(workload.archive_size,
                                   workload.archive_seed(seed))
    images_path, labels_path = archive_paths(directory)
    mnist.write_idx(images_path, images)
    mnist.write_idx(labels_path, labels)


def measure_setup(args, workload, directory, repeats):
    """Median wall time of fresh processes that import the program and write
    the archive: the set-up a user pays before a sweep starts. Returns the
    archive paths the last one wrote (None for the scalar study)."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload.name, "--seed", str(args.seed),
               "--setup-only", str(directory)] + (["--tiny"] * args.tiny)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up failed: {done.stderr.strip()}")
    archive = archive_paths(directory) if workload.archive_size else None
    return statistics.median(samples), archive


class Sweeps:
    """Runs CLI sweeps of one workload and tallies runs, failures, report
    problems and report digests."""

    def __init__(self, workload, seed, cli, archive, work_dir):
        self.workload, self.seed, self.cli = workload, seed, cli
        self.archive, self.out_dir = archive, work_dir / "out"
        self.attempted = self.failed = 0
        self.report_problems = []
        self.digests = {}        # argv -> set of report.json sha256

    def run(self, workers, tracer=None):
        """One sweep; returns the wall time of the cli.main call."""
        argv = self.workload.cli_argv(self.seed, self.archive,
                                      str(self.out_dir), workers)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        root_span = tracer.sweep() if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), root_span:
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        if code not in (0, 3):
            raise BenchError(f"rctbias {' '.join(argv)} exited with {code}")
        data = (self.out_dir / "report.json").read_bytes()
        doc = json.loads(data)
        self.attempted += self.workload.runs_per_sweep
        self.failed += len(doc.get("errors", []))
        self.report_problems += self.workload.check(doc)
        self.digests.setdefault(tuple(argv), set()).add(
            hashlib.sha256(data).hexdigest())
        return seconds

    def problems(self):
        """Every correctness problem seen so far; [] when outputs are ok."""
        problems = list(dict.fromkeys(self.report_problems))
        problems += [f"report.json differs across {len(d)} repeats"
                     for d in self.digests.values() if len(d) > 1]
        return problems


def end_to_end(args, workload, modules, work_dir, nproc):
    setup_s, archive = measure_setup(args, workload, work_dir / "archive",
                                     1 if args.tiny else SETUP_REPEATS)
    sweeps = Sweeps(workload, args.seed, modules["cli"], archive, work_dir)
    workers = workload.worker_count(nproc)
    times = []
    start = time.perf_counter()
    while True:
        times.append(sweeps.run(workers))
        if len(times) >= MIN_SWEEPS and \
                time.perf_counter() - start >= args.seconds:
            break
    sweep_s = statistics.median(times)
    completed = (sweeps.attempted - sweeps.failed) / len(times)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "sweep_s": (sweep_s, "s"),
        "runs_per_s": (completed / sweep_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {"sweeps": len(times), "sweep_s_all": times}
    return sweeps, metrics, notes


def per_layer(args, workload, modules, work_dir, nproc):
    _, archive = measure_setup(args, workload, work_dir / "archive", 1)
    metrics = kernels.run(modules["mnist"], modules["models"])
    sweeps = Sweeps(workload, args.seed, modules["cli"], archive, work_dir)
    tracer = spans.Tracer(time.perf_counter)
    workers = workload.worker_count(nproc)
    untraced, native = [], []
    start = time.perf_counter()
    # discarded: the first sweep of a process touches fresh memory, and
    # would make the untraced side of trace.overhead_ratio read slow
    sweeps.run(1)
    # the traced pass runs in-process: wrappers cannot see into pool workers
    while True:
        round_start = time.perf_counter()
        untraced.append(sweeps.run(1))
        with tracer.installed(modules):
            sweeps.run(1, tracer)
        if workers != 1:
            native.append(sweeps.run(workers))
        round_s = time.perf_counter() - round_start
        if time.perf_counter() - start + round_s > args.seconds:
            break
    layers, traced_s = spans.layer_metrics(
        tracer.spans, statistics.median(untraced),
        statistics.median(native or untraced), workers)
    metrics.update(layers)
    notes = {"rounds": len(untraced), "traced_sweep_s": traced_s,
             "untraced_sweep_s": statistics.median(untraced)}
    return sweeps, metrics, notes, tracer.spans


def git_commit():
    """The checked-out commit, read from .git if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(), "usable_cores": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
    }


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    try:
        modules = import_program()
        if args.setup_only:
            if workload.archive_size:
                write_archive(workload, args.seed, Path(args.setup_only),
                              modules["mnist"])
            return 0
        nproc = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        work_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
        try:
            if args.trace:
                sweeps, metrics, notes, recorded = per_layer(
                    args, workload, modules, work_dir, nproc)
            else:
                sweeps, metrics, notes = end_to_end(
                    args, workload, modules, work_dir, nproc)
                recorded = []
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(args, nproc)
    problems = sweeps.problems()
    correct = not problems
    print(json.dumps({"environment": env, "notes": notes,
                      "problems": problems}))
    if args.trace:
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps({"environment": env,
                                          "spans": recorded}))
        traced_s = notes["traced_sweep_s"]
        shares = {f"share of traced sweep: {name}":
                  (metrics[f"{name}_s"][0] / traced_s, "ratio")
                  for name in ("mnist.generate", "models.train",
                               "models.predict_soft", "scm.sample_rct")}
        print_table(f"{workload.name}: per-layer metrics "
                    "(counts are computed from call arguments)",
                    {**metrics, **shares})
    else:
        print_table(f"{workload.name}: end-to-end metrics", {
            **metrics,
            "failed_ratio": (sweeps.failed / sweeps.attempted, "ratio"),
            "outputs_ok": (int(correct), "bool")})
    print(json.dumps({
        "correct": correct, "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
