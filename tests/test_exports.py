"""Every name a module exports through ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import schurhx

MODULES = ["schurhx"] + [
    f"schurhx.{info.name}" for info in pkgutil.iter_modules(schurhx.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []
