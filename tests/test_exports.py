import importlib
import types
from pathlib import Path

import rctbias

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


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
