"""Every name a module exports through ``__all__`` exists on that module, and
every exception the package raises is typed."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import schurhx
import schurhx.errors

MODULES = ["schurhx"] + [
    f"schurhx.{info.name}" for info in pkgutil.iter_modules(schurhx.__path__)
]

#: The exception classes a ``raise`` in the package may name.
RAISABLE = {
    name for name, obj in vars(schurhx.errors).items() if isinstance(obj, type)
} | {"ValueError"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []


def _raised_name(node: ast.Raise) -> str:
    if node.exc is None:
        return "a bare re-raise"
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("name", MODULES)
def test_raises_are_typed(name):
    """Each ``raise`` names a ``schurhx.errors`` class or ``ValueError``, so a
    caller can catch every failure of the package by type."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    untyped = [
        f"line {node.lineno}: {_raised_name(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and _raised_name(node) not in RAISABLE
    ]
    assert untyped == []


def _imported_modules(tree: ast.Module, package: str) -> set[str]:
    """Absolute names of the modules a source tree imports, and of the
    names it imports from them, resolving relative imports in ``package``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


@pytest.mark.parametrize("name", [m for m in MODULES if m != "schurhx.cli"])
def test_only_cli_imports_the_oracle(name):
    """The dense verification layer stays out of the solver: no module but
    the command-line driver imports ``schurhx.oracle``."""
    module = importlib.import_module(name)
    package = name if hasattr(module, "__path__") else name.rpartition(".")[0]
    tree = ast.parse(inspect.getsource(module))
    assert "schurhx.oracle" not in _imported_modules(tree, package)
