"""Command line interface.

Subcommands: ``simulate`` (scalar-RCT convergence study), ``mnist-gen``
(colored-digit dataset generation only), ``experiment`` (colored-digit
sampling-bias study) and ``report`` (re-render a stored report).

Each option is declared once, as a row of OPTIONS, which makes both its
``--flag`` and its key in the ``key=value`` file that ``--config FILE``
names; a file key that its subcommand does not take is rejected. A value
comes from the flag, else the file, else the row's default (an empty value
counts as not given), and is parsed after that choice. A study option left
unset is not passed to ``harness.RunConfig``, so its default applies there.

Exit codes: 0 on full success, 3 when a sweep finished with recorded
per-run failures, 1 on any bad input or other error; a JSON summary goes
to stderr on any nonzero exit. ``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import harness, mnist
from ._version import __version__
from .errors import RctBiasError


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
    ("workers", STUDIES, int, None,
     "process pool size (default: RCTBIAS_WORKERS, else 1)"),
    ("input", (REP,), str, REQUIRED, "path to a stored report.json"),
    ("formats", (REP,), _strs, "json,csv_bundle",
     "comma-separated output formats"),
))
# option names that differ from their RunConfig field
_FIELDS = {"sizes": "sample_sizes", "d": "digit_threshold"}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: exit 1 with JSON."""

    def error(self, message):
        raise RctBiasError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rctbias",
        description="Simulate and audit ML-induced bias in treatment effect "
                    "estimation on partially annotated RCTs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", help="key=value config file; flags win")
        for option in OPTIONS:
            if command in option.commands:
                cmd.add_argument("--" + option.name.replace("_", "-"),
                                 help=option.help)
    return parser


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
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


def _run_study(experiment: str, study, values: dict) -> int:
    out, workers = values.pop("out"), values.pop("workers", None)
    seeds = tuple(range(values.pop("seeds")))
    seeds = values.pop("seed_list", seeds)
    config = harness.RunConfig(
        experiment=experiment, seeds=seeds,
        **{_FIELDS.get(name, name): value for name, value in values.items()})
    report = study(config, workers)
    _print_written(harness.emit_report(report, out))
    print(f"runs: {len(report.runs)} ok, {len(report.errors)} failed "
          f"(config_hash={report.config_hash})")
    if report.errors:
        json.dump({"status": "partial", "failed_runs": report.errors},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 3
    return 0


def _cmd_simulate(values: dict) -> int:
    return _run_study(harness.CONVERGENCE_EXPERIMENT,
                      harness.run_convergence_study, values)


def _cmd_experiment(values: dict) -> int:
    return _run_study(harness.MNIST_EXPERIMENT, harness.run_mnist_bias_study,
                      values)


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
    report = harness.report_from_json(values["input"])
    _print_written(harness.emit_report(report, values["out"],
                                       formats=values["formats"]))
    return 0


def _print_written(paths) -> None:
    for path in paths:
        print(f"wrote {path}")


COMMANDS = {
    SIM: ("scalar-RCT discretization convergence study", _cmd_simulate),
    GEN: ("generate a colored-digit dataset", _cmd_mnist_gen),
    EXP: ("colored-digit sampling-bias study", _cmd_experiment),
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
