"""The package surface: names re-exported from the submodules on first access."""

import importlib

import pytest

import linegeo


def test_every_exported_name_is_its_module_object():
    assert len(linegeo.__all__) == 48
    for name in linegeo.__all__:
        if name == "BACKEND":
            continue
        module = importlib.import_module(f"linegeo.{linegeo._MODULE_OF[name]}")
        assert getattr(linegeo, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from linegeo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(linegeo.__all__)
    for name, value in namespace.items():
        assert value is getattr(linegeo, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'linegeo' has no attribute 'no_such_name'"):
        linegeo.no_such_name
    assert not hasattr(linegeo, "__wrapped__")


def test_backend():
    assert linegeo.BACKEND == "python"

