import importlib
import re
import types
from pathlib import Path

import rctbias
from rctbias import harness, models

ROOT = Path(__file__).parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# exported for the paper claim they state, which unit tests check:
# E[Y | X = x] of the synthetic RCT, and the accuracy-to-bias bound
PAPER_CLAIMS = {"oracle_conditional_mean", "teb_upper_bound"}


def test_every_exported_name_resolves_and_none_is_a_module():
    assert len(set(rctbias.__all__)) == len(rctbias.__all__)
    for name in rctbias.__all__:
        assert not isinstance(getattr(rctbias, name), types.ModuleType), name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from rctbias import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rctbias.__all__)


def test_every_function_the_benchmark_traces_resolves():
    # the benchmark wraps these module attributes by name; executing its
    # source (rather than importing it) writes no bytecode next to it
    spans = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    targets = [*spans["LAYER_FUNCTIONS"], *spans["RUN_FUNCTIONS"]]
    assert len(targets) > len(spans["RUN_FUNCTIONS"])
    for module_name, attr in targets:
        module = importlib.import_module(f"rctbias.{module_name}")
        assert callable(getattr(module, attr, None)), \
            f"rctbias.{module_name}.{attr}"


def test_every_exported_name_is_used_by_a_pipeline():
    # a use is any mention but the name's own def or class statement, in
    # the package's modules, the benchmark or the acceptance suite
    package = ROOT / "src" / "rctbias"
    texts = [path.read_text() for path in
             [*package.glob("*.py"), *(ROOT / "perfbench").iterdir(),
              ROOT / "tests" / "test_acceptance.py"]
             if path.is_file() and path.name != "__init__.py"]
    unused = [name for name in rctbias.__all__
              if not any(re.search(rf"(?<!def )(?<!class )\b{name}\b", text)
                         for text in texts)]
    assert set(unused) <= PAPER_CLAIMS, unused


def test_every_model_kind_is_the_predictor_of_a_study():
    study_kinds = {study.training["model_kind"]
                   for study in harness.STUDIES.values()}
    assert set(models.MODEL_KINDS) <= study_kinds, models.MODEL_KINDS
