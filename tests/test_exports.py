"""Every name the package exports resolves and is used by the package itself, and
every package name the benchmark's traced pass reads still exists and takes the
arguments that pass gives it."""

import ast
import importlib
import inspect
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
    "coulomb_potential_density": "perfbench's traced pass times the Poisson solve and its newton "
                                 "check through it, with its (rho, grid) signature",
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


# perfbench/layers.py's helpers that call their argument at this index with the arguments after it
FORWARDERS = {"timed": 1, "guarded": 0}


def test_names_the_benchmark_reads_resolve():
    # perfbench lies outside testpaths: its traced pass imports from bosonstar,
    # reads attributes of the modules it imports as sp, diag and lab, and calls
    # them directly or through a FORWARDERS helper; each such call must bind to
    # the callable's signature (a call with *args or **kwargs is not checked)
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "layers.py").read_text())
    modules, names, missing = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bosonstar":
            for alias in node.names:
                if node.module == "bosonstar":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"bosonstar.{alias.name}")
                elif hasattr(importlib.import_module(node.module), alias.name):
                    names[alias.asname or alias.name] = getattr(
                        importlib.import_module(node.module), alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert {"sp", "diag", "lab"} <= set(modules) and missing == []

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id in modules):
            return getattr(modules[expr.value.id], expr.attr)
        return None

    bound, unbound = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = resolve(node.func), node.args
        helper = getattr(node.func, "attr", getattr(node.func, "id", None))
        if fn is None and helper in FORWARDERS and len(args) > FORWARDERS[helper]:
            fn, args = resolve(args[FORWARDERS[helper]]), args[FORWARDERS[helper] + 1:]
        if (not callable(fn) or any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(fn).bind(*args, **{k.arg: k.value for k in node.keywords})
            bound.add(fn.__name__)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {fn.__name__}: {exc}")
    assert unbound == []
    assert {"coulomb_potential_density", "evolve", "exterior_convergence_check",
            "virial_check"} <= bound
