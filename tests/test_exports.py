import types

import rctbias


def test_every_exported_name_resolves_and_none_is_a_module():
    assert len(set(rctbias.__all__)) == len(rctbias.__all__)
    for name in rctbias.__all__:
        assert not isinstance(getattr(rctbias, name), types.ModuleType), name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from rctbias import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rctbias.__all__)
