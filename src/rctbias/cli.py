"""Command line interface.

Subcommands: ``simulate`` (scalar-RCT convergence study), ``mnist-gen``
(colored-digit dataset generation only), ``experiment`` (colored-digit
sampling-bias study) and ``report`` (re-render a stored report).

Every subcommand accepts ``--config FILE`` pointing at a plain-text
``key=value`` file whose keys mirror the flag names (underscores for
dashes); explicit flags win on conflict. Exit codes: 0 on full success,
3 when a sweep finished with recorded per-run failures, 1 on error; a
machine-readable JSON summary goes to stderr on any nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import harness, mnist
from ._version import __version__
from .errors import RctBiasError


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


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve each option: explicit flag > config file entry > default."""
    file_values = _parse_config_file(args.config) if args.config else {}
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    unknown = set(file_values) - set(defaults)
    if unknown:
        raise RctBiasError(
            f"unknown config file keys: {', '.join(sorted(unknown))}")
    return resolved


def _int_list(text) -> tuple:
    if isinstance(text, (tuple, list)):
        return tuple(int(v) for v in text)
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _str_list(text) -> tuple:
    if isinstance(text, (tuple, list)):
        return tuple(text)
    return tuple(v for v in str(text).split(",") if v != "")


def _seed_tuple(seeds, seed_list) -> tuple:
    if seed_list is not None:
        return _int_list(seed_list)
    return tuple(range(int(seeds)))


@contextmanager
def _parsed_values():
    """Report an option value that does not parse (``seeds=two``) as a usage
    error rather than letting the bare ValueError escape."""
    try:
        yield
    except RctBiasError:
        raise
    except ValueError as exc:
        raise RctBiasError(f"bad option value: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags win")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rctbias",
        description="Simulate and audit ML-induced bias in treatment effect "
                    "estimation on partially annotated RCTs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="scalar-RCT discretization "
                                          "convergence study")
    _add_common(sim)
    sim.add_argument("--sizes", help="comma-separated sample sizes")
    sim.add_argument("--seeds", type=int, help="number of seeds (0..N-1)")
    sim.add_argument("--seed-list", help="explicit comma-separated seeds")
    sim.add_argument("--p-t", type=float, dest="p_t")
    sim.add_argument("--sigma2-y", type=float, dest="sigma2_y")
    sim.add_argument("--learning-rate", type=float, dest="learning_rate")
    sim.add_argument("--epochs", type=int)
    sim.add_argument("--batch-size", type=int, dest="batch_size")
    sim.add_argument("--threshold", type=float)
    sim.add_argument("--workers", type=int)

    gen = sub.add_parser("mnist-gen", help="generate a colored-digit dataset")
    _add_common(gen)
    gen.add_argument("--d", type=int, help="digit threshold (1..7)")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--mnist-images", dest="mnist_images")
    gen.add_argument("--mnist-labels", dest="mnist_labels")

    exp = sub.add_parser("experiment", help="colored-digit sampling-bias study")
    _add_common(exp)
    exp.add_argument("--mnist-images", dest="mnist_images")
    exp.add_argument("--mnist-labels", dest="mnist_labels")
    exp.add_argument("--schemes", help="comma-separated scheme names")
    exp.add_argument("--seeds", type=int)
    exp.add_argument("--seed-list", help="explicit comma-separated seeds")
    exp.add_argument("--d", type=int, help="digit threshold (1..7)")
    exp.add_argument("--learning-rate", type=float, dest="learning_rate")
    exp.add_argument("--epochs", type=int)
    exp.add_argument("--batch-size", type=int, dest="batch_size")
    exp.add_argument("--threshold", type=float)
    exp.add_argument("--validation-size", type=int, dest="validation_size")
    exp.add_argument("--workers", type=int)

    rep = sub.add_parser("report", help="re-render a stored report")
    _add_common(rep)
    rep.add_argument("--input", help="path to a stored report.json")
    rep.add_argument("--formats", help="comma-separated output formats")
    return parser


def _require(resolved: dict, *keys) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise RctBiasError(f"missing required options: {', '.join(missing)}")


def _cmd_simulate(args) -> int:
    resolved = _merge(args, {
        "out": None, "sizes": "1000,10000,100000", "seeds": 20,
        "seed_list": None, "p_t": 0.5, "sigma2_y": 1.0,
        "learning_rate": None, "epochs": None, "batch_size": None,
        "threshold": 0.5, "workers": None,
    })
    _require(resolved, "out")
    with _parsed_values():
        config = harness.RunConfig(
            experiment=harness.CONVERGENCE_EXPERIMENT,
            seeds=_seed_tuple(resolved["seeds"], resolved["seed_list"]),
            sample_sizes=_int_list(resolved["sizes"]),
            p_t=float(resolved["p_t"]), sigma2_y=float(resolved["sigma2_y"]),
            learning_rate=_opt_float(resolved["learning_rate"]),
            epochs=_opt_int(resolved["epochs"]),
            batch_size=_opt_int(resolved["batch_size"]),
            threshold=float(resolved["threshold"]))
        workers = _opt_int(resolved["workers"])
    report = harness.run_convergence_study(config, workers)
    return _finish(report, resolved["out"])


def _cmd_mnist_gen(args) -> int:
    resolved = _merge(args, {
        "out": None, "d": 3, "seed": 0,
        "mnist_images": None, "mnist_labels": None,
    })
    _require(resolved, "out", "mnist_images", "mnist_labels")
    with _parsed_values():
        d, seed = int(resolved["d"]), int(resolved["seed"])
    archive = mnist.load_idx(resolved["mnist_images"], resolved["mnist_labels"])
    spec = mnist.build_population(d)
    dataset = mnist.generate(archive, spec, seed=seed)
    dataset.save(resolved["out"])
    print(f"wrote {len(dataset)} colored digits to {resolved['out']} "
          f"(d={spec.d}, designed ATE={spec.ate})")
    return 0


def _cmd_experiment(args) -> int:
    resolved = _merge(args, {
        "out": None, "mnist_images": None, "mnist_labels": None,
        "schemes": "random_few,biased_few", "seeds": 20, "seed_list": None,
        "d": 3, "learning_rate": None, "epochs": None, "batch_size": None,
        "threshold": 0.5, "validation_size": None, "workers": None,
    })
    _require(resolved, "out", "mnist_images", "mnist_labels")
    with _parsed_values():
        config = harness.RunConfig(
            experiment=harness.MNIST_EXPERIMENT,
            seeds=_seed_tuple(resolved["seeds"], resolved["seed_list"]),
            mnist_images=resolved["mnist_images"],
            mnist_labels=resolved["mnist_labels"],
            schemes=_str_list(resolved["schemes"]),
            digit_threshold=int(resolved["d"]),
            learning_rate=_opt_float(resolved["learning_rate"]),
            epochs=_opt_int(resolved["epochs"]),
            batch_size=_opt_int(resolved["batch_size"]),
            threshold=float(resolved["threshold"]),
            validation_size=_opt_int(resolved["validation_size"]))
        workers = _opt_int(resolved["workers"])
    report = harness.run_mnist_bias_study(config, workers)
    return _finish(report, resolved["out"])


def _cmd_report(args) -> int:
    resolved = _merge(args, {"out": None, "input": None,
                             "formats": "json,csv_bundle"})
    _require(resolved, "out", "input")
    report = harness.report_from_json(resolved["input"])
    written = harness.emit_report(report, resolved["out"],
                                  formats=_str_list(resolved["formats"]))
    for path in written:
        print(f"wrote {path}")
    return 0


def _opt_int(value):
    return None if value in (None, "") else int(value)


def _opt_float(value):
    return None if value in (None, "") else float(value)


def _finish(report, out_dir) -> int:
    written = harness.emit_report(report, out_dir)
    for path in written:
        print(f"wrote {path}")
    print(f"runs: {len(report.runs)} ok, {len(report.errors)} failed "
          f"(config_hash={report.config_hash})")
    if report.errors:
        json.dump({"status": "partial", "failed_runs": report.errors},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "mnist-gen": _cmd_mnist_gen,
                "experiment": _cmd_experiment, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except RctBiasError as exc:
        json.dump({"status": "error", "error": type(exc).__name__,
                   "message": str(exc)}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1
    except OSError as exc:
        json.dump({"status": "error", "error": type(exc).__name__,
                   "message": str(exc)}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
