"""Run every workload and check each result against BENCHMARK.json.

    python3 perfbench/suite.py            # smoke test: tiny inputs, seconds
    python3 perfbench/suite.py --full     # the benchmark's own sizes

Run from the repository root. Each workload runs through run.py in its own
process, with tracing off and on. A result passes when it is correct, no run
failed, and its metrics are exactly the end-to-end metrics (tracing off) or
the per-layer metrics (tracing on) that BENCHMARK.json names, each with its
unit and a finite value. The readable tables run.py prints are passed
through, so one command shows every metric of every workload by name and
unit. Exits 0 when every result passes.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(result, expected):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("outputs not correct")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{result.get('failed')} of {result.get('attempted')} "
                        "runs failed")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, "
                        f"wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="the benchmark's sizes instead of tiny inputs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="per run (default: 1 tiny, run_seconds full)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    seconds = args.seconds or (bench["run_seconds"] if args.full else 1)
    names = [w["name"] for w in bench["workloads"]]
    names += [name for name in WORKLOADS if name not in names]

    failures = 0
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if not args.full:
                command.append("--tiny")
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                problems = check(result, expected[trace])
            except (IndexError, ValueError):
                problems = ["no result line"]
            if done.returncode != 0:
                problems.append(f"exit code {done.returncode}: "
                                f"{done.stderr.strip()[-500:]}")
            print("\n".join(lines[1:-1]))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"== {name} trace={trace}: {status}\n", flush=True)
            failures += bool(problems)
    print(f"{failures} of {2 * len(names)} results failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
