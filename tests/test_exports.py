"""Every name the package exports resolves: each module's `__all__` and the
names `bosonstar/__init__.py` imports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import bosonstar

MODULES = [name for _, name, _ in pkgutil.iter_modules(bosonstar.__path__) if name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"bosonstar.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(bosonstar.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and [name for name in names if not hasattr(bosonstar, name)] == []
