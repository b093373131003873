"""The benchmark's workloads: which CLI sweep each one runs, at what size,
and how its report is checked. Why each workload exists is stated in
BENCHMARK.json and perfbench/README.md.

Every workload drives ``rctbias.cli.main`` the way a user would. A run is a
colored-digit (scheme, seed) pair or a convergence (n, seed) cell. The
archive seed and the study seeds derive from the workload seed, so one
benchmark seed fixes every input.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

DESIGNED_ATE = 0.3
# lowest balanced_accuracy_full a colored-digit run may have, by scheme. A
# predictor that ignores the image scores 0.5 here, while its accuracy_full
# would be the outcome base rate, 0.6 at d=3. On the synthetic archive after
# 2 epochs, random_few runs scored at least 0.613 (78 runs) and a convnet
# left at its initial weights 0.40-0.567 (11 seeds, 10 below 0.55). Trained
# biased_few runs reach down to 0.554, so no floor separates them from an
# untrained net; theirs only rejects worse-than-chance predictors.
BALANCED_ACCURACY_FLOORS = {"random_few": 0.55, "biased_few": 0.5}
# every digit workload trains this long: after one epoch either scheme can
# fall to a balanced accuracy of 0.53, below the random_few floor
EPOCHS = 2
# analytic limits of the convergence study at sigma2_y = 1 and their
# tolerance at n = 1e5; the per-seed spread there is about 0.004, so 0.015
# is more than 7 standard errors of a 5-seed mean
CONVERGENCE_LIMITS = {"ead_soft_mean": 0.2181, "ead_hard_mean": 0.2602}
CONVERGENCE_TOLERANCE = 0.015
CONVERGENCE_CHECK_N = "100000"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                     # "experiment" or "simulate"
    seeds: int                       # study seeds per sweep
    workers: str                     # "1" or "nproc"
    archive_size: int = 0            # synthetic images; 0 for "simulate"
    schemes: tuple = ()
    validation_size: Optional[int] = None
    sizes: tuple = ()

    @property
    def runs_per_sweep(self) -> int:
        groups = len(self.schemes) if self.command == "experiment" \
            else len(self.sizes)
        return groups * self.seeds

    def archive_seed(self, seed: int) -> int:
        return int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])

    def study_seeds(self, seed: int) -> list:
        words = np.random.SeedSequence([seed, 1]).generate_state(self.seeds)
        return [int(w) for w in words]

    def worker_count(self, nproc: int) -> int:
        return nproc if self.workers == "nproc" else int(self.workers)

    def cli_argv(self, seed: int, archive: Optional[tuple], out_dir: str,
                 workers: int) -> list:
        argv = [self.command,
                "--seed-list", ",".join(map(str, self.study_seeds(seed))),
                "--workers", str(workers), "--out", out_dir]
        if self.command == "simulate":
            return argv + ["--sizes", ",".join(map(str, self.sizes))]
        argv += ["--mnist-images", archive[0], "--mnist-labels", archive[1],
                 "--schemes", ",".join(self.schemes), "--d", "3",
                 "--epochs", str(EPOCHS), "--batch-size", "64"]
        if self.validation_size is not None:
            argv += ["--validation-size", str(self.validation_size)]
        return argv

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same code path, for the smoke test."""
        if self.command == "simulate":
            return replace(self, seeds=2)
        return replace(self, archive_size=4000, validation_size=200)

    def check(self, doc: dict) -> list:
        """Problems found in one sweep's report.json document; [] if none."""
        problems = []
        runs, errors = doc.get("runs", []), doc.get("errors", [])
        if errors:
            problems.append(f"{len(errors)} failed runs")
        if len(runs) != self.runs_per_sweep:
            problems.append(f"{len(runs)} runs reported, expected "
                            f"{self.runs_per_sweep}")
        if self.command == "simulate":
            cell = doc.get("aggregates", {}).get("per_n", {}).get(
                CONVERGENCE_CHECK_N, {})
            for key, limit in CONVERGENCE_LIMITS.items():
                value = cell.get(key)
                if value is None or abs(value - limit) > CONVERGENCE_TOLERANCE:
                    problems.append(f"{key} at n={CONVERGENCE_CHECK_N} is "
                                    f"{value}, expected {limit} +- "
                                    f"{CONVERGENCE_TOLERANCE}")
            return problems
        for run in runs:
            scheme = run.get("scheme")
            # the design fixes designed_ate: this only checks it is reported
            if run.get("designed_ate") != DESIGNED_ATE:
                problems.append(f"run {scheme}/{run.get('seed')}: "
                                f"designed_ate {run.get('designed_ate')}")
            floor = BALANCED_ACCURACY_FLOORS.get(scheme, float("inf"))
            accuracy = run.get("balanced_accuracy_full", 0.0)
            if not accuracy >= floor:
                problems.append(f"run {scheme}/{run.get('seed')}: "
                                f"balanced_accuracy_full {accuracy} below "
                                f"{floor}")
        return problems


WORKLOADS = {w.name: w for w in (
    # training-bound: 2 runs x 1,800 annotated images x 2 epochs
    Workload(name="digits_train", command="experiment", seeds=1,
             schemes=("random_few", "biased_few"), archive_size=5000,
             workers="1"),
    # inference- and memory-bound: one run scoring an MNIST-size archive
    Workload(name="digits_fullsize", command="experiment", seeds=1,
             schemes=("random_few",), archive_size=60000, workers="1"),
    # logistic scorer on the scalar RCT; no digit archive, no convnet
    Workload(name="convergence", command="simulate", seeds=5,
             sizes=(1000, 10000, 100000), workers="nproc"),
    # the digits_train inputs through the process pool. Not listed in
    # BENCHMARK.json: with every pool worker running the default BLAS thread
    # count, its sweep time spreads by a tenth from run to run; kept for
    # measuring the pool by hand
    Workload(name="digits_pool", command="experiment", seeds=1,
             schemes=("random_few", "biased_few"), archive_size=5000,
             workers="nproc"),
)}
