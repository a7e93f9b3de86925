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


# the radial modules, where abs2 is the one spelling of the density |u|^2
RADIAL_MODULES = ("spectral.py", "evolution.py", "diagnostics.py", "ground_state.py")


def _calls_np_abs(node) -> bool:
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
               and sub.func.attr == "abs" and getattr(sub.func.value, "id", None) == "np"
               for sub in ast.walk(node))


def test_the_radial_density_is_spelled_abs2():
    # np.abs(z) ** 2 and np.square(np.abs(z)) square the rounded hypot, whose bits differ
    # from abs2's re^2 + im^2, so a second spelling would give a second density
    sites = []
    for name in RADIAL_MODULES:
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            squared = (node.left if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                       and getattr(node.right, "value", None) == 2
                       else node.args[0] if isinstance(node, ast.Call) and node.args
                       and getattr(node.func, "attr", None) == "square" else None)
            if squared is not None and _calls_np_abs(squared):
                sites.append(f"{name}:{node.lineno}")
    assert sites == []


def _gc_sites(path) -> list[int]:
    # an import of gc, an import from it, or a read of a name gc
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
            or isinstance(node, ast.Name) and node.id == "gc"]


def test_only_the_cli_touches_the_garbage_collector():
    # cli.py freezes the imported heap for a command's exit; importing the package or any
    # other module must leave a host process's collector as it found it
    sites = {path.name: _gc_sites(path) for path in SRC.glob("*.py")}
    assert sites.pop("cli.py") and {name: lines for name, lines in sites.items() if lines} == {}


# the calls that make or leave a process, or move a thread between CPUs
PROCESS_CALLS = {"fork", "_exit", "sched_setaffinity"}


def _process_sites(path) -> list[int]:
    # a read of os.fork, os._exit or os.sched_setaffinity, or an import of one from os
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
            and getattr(node.value, "id", None) == "os"
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in PROCESS_CALLS for a in node.names)]


def _stray_process_sites(src) -> dict:
    # the modules of src other than evolution.py that fork, leave a process or pin a thread
    sites = {path.name: _process_sites(path) for path in pathlib.Path(src).glob("*.py")}
    assert sites.pop("evolution.py")
    return {name: lines for name, lines in sites.items() if lines}


def test_only_evolution_forks_or_pins(tmp_path):
    # evolve forks its record worker, which leaves by os._exit, and pins both processes
    # until it reaps the worker; no other module may fork, exit a process or pin a thread
    assert _stray_process_sites(SRC) == {}
    for path in SRC.glob("*.py"):  # a copy in which diagnostics forks too fails the guard
        text = path.read_text()
        if path.name == "diagnostics.py":
            text += "\n\ndef _fork():\n    return os.fork()\n"
        (tmp_path / path.name).write_text(text)
    assert list(_stray_process_sites(tmp_path)) == ["diagnostics.py"]


def _step_floor_sites(path) -> list[int]:
    # an import of STEP_FLOOR, a read of it as a name or an attribute, or its string
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and any(a.name == "STEP_FLOOR" for a in node.names)
            or isinstance(node, ast.Name) and node.id == "STEP_FLOOR"
            or isinstance(node, ast.Attribute) and node.attr == "STEP_FLOOR"
            or isinstance(node, ast.Constant) and node.value == "StepFloor"]


def test_only_evolution_reads_the_step_floor():
    # evolve sets StepFloor and Trajectory.blowup_suspected reads it; every other module
    # asks the trajectory, so a new blowup reason goes into that one predicate
    sites = {path.name: _step_floor_sites(path) for path in SRC.glob("*.py")}
    assert sites.pop("evolution.py") and {name: lines for name, lines in sites.items() if lines} == {}
