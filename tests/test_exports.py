"""Every name the package exports resolves and is used by the package itself, and
every package name the benchmark's traced pass reads still exists."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import bosonstar

MODULES = [name for _, name, _ in pkgutil.iter_modules(bosonstar.__path__) if name != "__main__"]
SRC = pathlib.Path(bosonstar.__file__).parent

# exported but called by no command, each kept for a reader outside src/bosonstar
UNREFERENCED = {
    "SpectralField": "perfbench's traced pass times the transform pair through it",
    "radial_transform": "perfbench's traced pass times the forward transform through it",
    "inverse_radial_transform": "perfbench's traced pass times the inverse transform through it",
    "trajectory_from_snapshots": "builds test trajectories through evolve's private record code",
    "dilation_decay_check": "acceptance criterion 6 reads it",
    "h_minus1_rhs_bound": "tests read it; its diagnose check needs no Tolerances field, not built yet",
    "energy": "the conserved energy of a Field, public through bosonstar/__init__",
}


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"bosonstar.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(bosonstar.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and [name for name in names if not hasattr(bosonstar, name)] == []


def test_every_export_is_used_by_the_package():
    # a name read (a Name or an attribute) anywhere in src/bosonstar outside
    # its own top-level definition; the strings of __all__ are no reads
    used = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name != getattr(top, "name", None):
                    used.add(name)
    exported = {name for module in MODULES
                for name in getattr(importlib.import_module(f"bosonstar.{module}"), "__all__", ())}
    assert sorted(exported - used - set(UNREFERENCED)) == []
    assert sorted(set(UNREFERENCED) - exported) == []


def test_names_the_benchmark_reads_resolve():
    # perfbench lies outside testpaths: its traced pass imports from bosonstar
    # and reads attributes of the modules it imports as sp, diag and lab
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "layers.py").read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bosonstar":
            for alias in node.names:
                if node.module == "bosonstar":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"bosonstar.{alias.name}")
                elif not hasattr(importlib.import_module(node.module), alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert {"sp", "diag", "lab"} <= set(modules) and missing == []
