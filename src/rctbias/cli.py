"""Command line interface.

Subcommands: ``simulate`` (scalar-RCT convergence study), ``mnist-gen``
(colored-digit dataset generation only), ``experiment`` (colored-digit
sampling-bias study) and ``report`` (re-render a stored report). The two
studies run through ``harness.run_study``.

Each option is declared once, as a row of OPTIONS, which makes both its
``--flag`` and its key in the ``key=value`` file that ``--config FILE``
names; a file key that its subcommand does not take is rejected. A value
comes from the flag, else the file, else the row's default (an empty value
counts as not given), and is parsed after that choice. A study option left
unset is not passed to ``harness.RunConfig``, nor an unset ``workers`` to
``harness.run_study``, so their defaults apply there.

Exit codes: 0 on full success, 3 when a sweep finished (or a report
re-rendered) with recorded per-run failures, 1 on any bad input or other
error; a JSON summary goes to stderr on any nonzero exit. ``--help`` and
``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import harness, mnist
from ._version import __version__
from .errors import ConfigurationError, RctBiasError


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v != "")


def _strs(text: str) -> tuple:
    return tuple(v for v in text.split(",") if v != "")


class Option(NamedTuple):
    name: str
    commands: tuple
    parse: Callable
    default: object     # text, None (unset) or REQUIRED
    help: str


SIM, GEN, EXP, REP = "simulate", "mnist-gen", "experiment", "report"
STUDIES = (SIM, EXP)
REQUIRED = object()     # the default of an option that must be given

OPTIONS = tuple(Option(*row) for row in (
    ("out", (SIM, GEN, EXP, REP), str, REQUIRED, "output directory"),
    ("mnist_images", (GEN, EXP), str, REQUIRED, "IDX file of digit images"),
    ("mnist_labels", (GEN, EXP), str, REQUIRED, "IDX file of digit labels"),
    ("sizes", (SIM,), _ints, None, "comma-separated sample sizes"),
    ("schemes", (EXP,), _strs, None, "comma-separated scheme names"),
    ("seeds", STUDIES, int, "20", "number of seeds (0..N-1)"),
    ("seed_list", STUDIES, _ints, None,
     "explicit comma-separated seeds; beats --seeds"),
    ("seed", (GEN,), int, "0", "generation seed"),
    ("p_t", (SIM,), float, None, "treatment probability"),
    ("sigma2_y", (SIM,), float, None, "outcome-noise variance"),
    ("d", (GEN, EXP), int, None, "digit threshold (1..7)"),
    ("learning_rate", STUDIES, float, None, "Adam step size"),
    ("epochs", STUDIES, int, None, "training epochs"),
    ("batch_size", STUDIES, int, None, "training mini-batch size"),
    ("threshold", STUDIES, float, None, "discretization threshold"),
    ("validation_size", (EXP,), int, None, "held-out validation units"),
    ("workers", STUDIES, int, None, "process pool size (default 1)"),
    ("input", (REP,), str, REQUIRED, "path to a stored report.json"),
))
# option names that differ from their RunConfig field
_FIELDS = {"sizes": "sample_sizes", "d": "digit_threshold"}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: exit 1 with JSON."""

    def error(self, message):
        raise RctBiasError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rctbias", allow_abbrev=False,
        description="Simulate and audit ML-induced bias in treatment effect "
                    "estimation on partially annotated RCTs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        cmd.add_argument("--config", help="key=value config file; flags win")
        for option in OPTIONS:
            if command in option.commands:
                cmd.add_argument("--" + option.name.replace("_", "-"),
                                 help=option.help)
    return parser


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RctBiasError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """The parsed value of each option of the subcommand that is set:
    explicit flag > config file entry > default."""
    options = [o for o in OPTIONS if args.command in o.commands]
    file_values = _parse_config_file(args.config) if args.config else {}
    unknown = set(file_values) - {o.name for o in options}
    if unknown:
        raise RctBiasError(
            f"unknown config file keys: {', '.join(sorted(unknown))}")
    values, missing = {}, []
    for o in options:
        text = getattr(args, o.name) or file_values.get(o.name) or o.default
        if text is REQUIRED:
            missing.append(o.name)
        elif text is not None:
            try:
                values[o.name] = o.parse(text)
            except ValueError as exc:
                raise RctBiasError(
                    f"bad option value for {o.name}: {exc}") from None
    if missing:
        raise RctBiasError(f"missing required options: {', '.join(missing)}")
    return values


def _run_study(experiment: str, values: dict) -> int:
    out = values.pop("out")
    pool = {"workers": values.pop("workers")} if "workers" in values else {}
    seeds = values.pop("seed_list", tuple(range(values.pop("seeds"))))
    config = harness.RunConfig(
        experiment=experiment, seeds=seeds,
        **{_FIELDS.get(name, name): value for name, value in values.items()})
    return _write(harness.run_study(config, **pool), out)


def _cmd_mnist_gen(values: dict) -> int:
    archive = mnist.load_idx(values["mnist_images"], values["mnist_labels"])
    spec = mnist.build_population(
        values.get("d", harness.RunConfig.digit_threshold))
    dataset = mnist.generate(archive, spec, seed=values["seed"])
    dataset.save(values["out"])
    print(f"wrote {len(dataset)} colored digits to {values['out']} "
          f"(d={spec.d}, designed ATE={spec.ate})")
    return 0


def _cmd_report(values: dict) -> int:
    return _write(harness.report_from_json(values["input"]), values["out"])


def _write(report: harness.ExperimentReport, out: str) -> int:
    """Emit ``report`` to ``out`` and print the paths and the run count; 3,
    with the failed runs in a JSON summary, if any run failed, else 0."""
    for path in harness.emit_report(report, out):
        print(f"wrote {path}")
    print(f"runs: {len(report.runs)} ok, {len(report.errors)} failed "
          f"(config_hash={report.config_hash})")
    if report.errors:
        json.dump({"status": "partial", "failed_runs": report.errors},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 3
    return 0


COMMANDS = {
    SIM: ("scalar-RCT discretization convergence study",
          functools.partial(_run_study, harness.CONVERGENCE_EXPERIMENT)),
    GEN: ("generate a colored-digit dataset", _cmd_mnist_gen),
    EXP: ("colored-digit sampling-bias study",
          functools.partial(_run_study, harness.MNIST_EXPERIMENT)),
    REP: ("re-render a stored report", _cmd_report),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][1](_resolve(args))
    except (RctBiasError, OSError) as exc:
        json.dump({"status": "error", "error": type(exc).__name__,
                   "message": str(exc)}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
