"""Traced pass: per-layer timings of the bosonstar modules, taken from outside.

The pass imports the package in-process, calls the public functions of each
module the way the CLI does, and times each call with perf_counter; no span
is recorded inside the package.  One pass runs, in this order:

* cli: a fresh interpreter imports bosonstar.cli (median of 3);
* ground_state: the reference solve at (4096, 128) (median of 3);
* spectral: transform pairs, Coulomb solves and the JSON form of one
  n=16384 field, each the median of many calls;
* evolution, config, diagnostics: the workload's radial run (the blowup run
  on operator-lab, which has none): evolve, save, manifest, verify, load,
  then every diagnose check on the loaded trajectory, the way `diagnose`
  calls it;
* operator_lab: the five suites of `operator-check --suite all` with the
  benchmark's seed.

Every call's result gets the same checks as the end-to-end run; one call is
one operation.
"""

import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import workloads

IMPORT_REPEATS = 3
SOLVE_REPEATS = 3
MICRO_REPS = {1024: 400, 4096: 200, 16384: 60}
JSON_REPS = 5

UNITS = {
    "cli.import_s": "s",
    "ground_state.solve_s": "s",
    "ground_state.sweeps": "count",
    "spectral.transform_us.n1024": "us",
    "spectral.transform_us.n4096": "us",
    "spectral.transform_us.n16384": "us",
    "spectral.coulomb_us.n4096": "us",
    "spectral.coulomb_us.n16384": "us",
    "spectral.field_to_json_ms": "ms",
    "spectral.field_from_json_ms": "ms",
    "evolution.evolve_s": "s",
    "evolution.steps": "count",
    "evolution.step_us": "us",
    "evolution.snapshots": "count",
    "evolution.save_s": "s",
    "evolution.load_s": "s",
    "evolution.snapshot_mb": "MB",
    "config.manifest_s": "s",
    "config.verify_s": "s",
    "diagnostics.propagation_s": "s",
    "diagnostics.tightness_s": "s",
    "diagnostics.concentration_s": "s",
    "diagnostics.measure_s": "s",
    "diagnostics.exterior_s": "s",
    "diagnostics.newton_s": "s",
    "diagnostics.virial_s": "s",
    "operator_lab.commutator_s": "s",
    "operator_lab.localization_s": "s",
    "operator_lab.ims_s": "s",
    "operator_lab.subcritical_s": "s",
    "operator_lab.profiles_s": "s",
}

DIAGNOSTIC_CHECKS = ("propagation", "tightness", "concentration", "measure",
                     "exterior", "newton", "virial")
LAB_SUITES = ("commutator", "localization", "ims", "subcritical", "profiles")
OPERATIONS = (("cli.import", "ground_state.solve", "spectral.kernels",
               "evolution.evolve", "evolution.save", "config.manifest",
               "config.verify", "evolution.load")
              + tuple(f"diagnostics.{c}" for c in DIAGNOSTIC_CHECKS)
              + tuple(f"operator_lab.{s}" for s in LAB_SUITES))


class Pass:
    """Metrics, spans and per-operation problems of one traced pass."""

    def __init__(self):
        self.metrics = {}
        self.spans = {}
        self.problems = {}

    def timed(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans[name] = time.perf_counter() - t0
        return out

    def done(self, op, problems=()):
        self.problems[op] = list(problems)


def median_call(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fresh_import_s(src):
    code = "import time; t = time.perf_counter(); import bosonstar.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def trace_ground_state(p, sizes):
    from bosonstar.ground_state import solve_ground_state
    from bosonstar.spectral import RadialGrid

    grid = RadialGrid(*sizes["gs_grid"])
    solves = []
    for _ in range(SOLVE_REPEATS):
        t0 = time.perf_counter()
        gs = solve_ground_state(grid)
        solves.append(time.perf_counter() - t0)
    p.spans["ground_state.solve"] = statistics.median(solves)
    p.metrics["ground_state.solve_s"] = statistics.median(solves)
    p.metrics["ground_state.sweeps"] = gs.iterations
    p.done("ground_state.solve", checks.ground_state_problems(
        gs.critical_mass, gs.q.values.real, grid.r_max))
    return gs


def trace_spectral(p):
    from bosonstar import spectral as sp

    for n, reps in MICRO_REPS.items():
        f = sp.gaussian_field(sp.RadialGrid(n, 16.0), 1.0, 0.5)
        p.metrics[f"spectral.transform_us.n{n}"] = 1e6 * median_call(
            lambda: sp.inverse_radial_transform(sp.radial_transform(f)), reps)
        if n >= 4096:
            rho = np.abs(f.values) ** 2
            p.metrics[f"spectral.coulomb_us.n{n}"] = 1e6 * median_call(
                lambda: sp.coulomb_potential_density(rho, f.grid), reps)
    doc = sp.field_to_json(f)
    p.metrics["spectral.field_to_json_ms"] = 1e3 * median_call(lambda: sp.field_to_json(f), JSON_REPS)
    p.metrics["spectral.field_from_json_ms"] = 1e3 * median_call(lambda: sp.field_from_json(doc), JSON_REPS)
    back = sp.field_from_json(doc)
    p.done("spectral.kernels", [] if np.array_equal(back.values, f.values)
           else ["field JSON round trip changed the values"])


def trace_radial(p, kind, sizes, gs, out_dir):
    from bosonstar import diagnostics as diag
    from bosonstar.config import config_from_dict, verify_manifest, write_manifest
    from bosonstar.evolution import EvolutionControls, evolve, load_trajectory, save_trajectory
    from bosonstar.spectral import (Field, ModelParams, RadialGrid, coulomb_potential_density,
                                    gaussian_field, mass)

    cfg = config_from_dict(workloads.evolve_config(kind, sizes, gs.critical_mass, out_dir))
    tol = cfg.tolerances
    grid = RadialGrid(cfg.grid["n_points"], cfg.grid["r_max"])
    params = ModelParams(cfg.params["mass"])
    controls = EvolutionControls(**{"resolved_width_cells": tol.resolved_width_cells,
                                    **cfg.controls})
    u0 = gaussian_field(grid, cfg.u0["amplitude"], cfg.u0["width"])
    u0 = Field(grid, u0.values * np.sqrt(cfg.u0["mass"] / mass(u0)))

    traj = p.timed("evolution.evolve", evolve, u0, params, controls)
    steps = len(traj.records["t"]) - 1
    files = p.timed("evolution.save", save_trajectory, traj, out_dir)
    p.done("evolution.save")
    p.timed("config.manifest", write_manifest, cfg, out_dir, p.spans["evolution.evolve"],
            list(files.values()))
    p.done("config.manifest")
    if kind == "blowup":
        run_problems = checks.check_blowup_run(out_dir, f"termination {traj.termination}")
    else:
        run_problems = checks.check_subcritical_run(out_dir, f"termination {traj.termination}",
                                                    sizes["subcritical_t_end"])
    p.done("evolution.evolve", run_problems)
    verified = p.timed("config.verify", verify_manifest, out_dir)
    p.done("config.verify", [] if verified else ["verify_manifest rejected fresh outputs"])
    loaded = p.timed("evolution.load", load_trajectory, out_dir)
    same = (loaded.termination == traj.termination and len(loaded.snapshots) == len(traj.snapshots)
            and np.array_equal(loaded.snapshots[-1].field.values, traj.snapshots[-1].field.values))
    p.done("evolution.load", [] if same else ["loaded trajectory differs from the saved one"])
    p.metrics.update({
        "evolution.evolve_s": p.spans["evolution.evolve"],
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * p.spans["evolution.evolve"] / steps,
        "evolution.snapshots": len(traj.snapshots),
        "evolution.save_s": p.spans["evolution.save"],
        "evolution.load_s": p.spans["evolution.load"],
        "evolution.snapshot_mb": sum(os.path.getsize(path) for key, path in files.items()
                                     if key != "records") / 1e6,
        "config.manifest_s": p.spans["config.manifest"],
        "config.verify_s": p.spans["config.verify"],
    })

    # each check as `diagnose` calls it; only the checks the workload's
    # diagnose runs must pass (exterior is timed on subcritical, not judged)
    traj = loaded
    bank = diag.cutoff_bank(traj.grid, [r for r in tol.bank_radii if r < 0.9 * traj.grid.r_max])

    def tightness():
        try:
            r_star = diag.tightness_check(traj, 0.01 * traj.initial_mass)
        except diag.NotTightOnGrid:
            return [diag.CheckRecord("tightness", {}, float("inf"), traj.grid.r_max, False)]
        return [diag.CheckRecord("tightness", {}, r_star, traj.grid.r_max, r_star < traj.grid.r_max)]

    def newton():
        worst = max(float(np.max(traj.grid.r * coulomb_potential_density(
            np.abs(s.field.values) ** 2, traj.grid))) for s in traj.snapshots)
        bound = traj.initial_mass * (1.0 + tol.newton_slack)
        return [diag.CheckRecord("newton_bound", {}, worst, bound, worst <= bound)]

    def guarded(fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except diag.InsufficientSnapshots:
            return [diag.CheckRecord(fn.__name__, {}, float("nan"), float("nan"), False)]
        return out if isinstance(out, list) else [out]

    runners = {
        "propagation": lambda: [diag.propagation_bound_check(traj, chi, tol.c_cal_propagation)
                                for chi in bank],
        "tightness": tightness,
        "concentration": lambda: diag.minimal_concentration_check(
            traj, gs, tol.conc_mass_fraction, center_cells=tol.conc_center_cells),
        "measure": lambda: diag.blowup_measure(traj, tol.histogram_bins, cutoffs=bank,
                                               c_cal=tol.c_cal_propagation)[1],
        "exterior": lambda: guarded(diag.exterior_convergence_check, traj, tol.exterior_radius,
                                    params, final_frac=tol.exterior_final_frac),
        "newton": newton,
        "virial": lambda: guarded(diag.virial_check, traj, params, tol.virial_envelope_slack,
                                  tol.virial_residual),
    }
    for name in DIAGNOSTIC_CHECKS:
        records = p.timed(f"diagnostics.{name}", runners[name])
        p.metrics[f"diagnostics.{name}_s"] = p.spans[f"diagnostics.{name}"]
        failing = [r.check for r in records if not r.passed] if judged(kind, name) else []
        p.done(f"diagnostics.{name}", [f"{c} failed" for c in failing])


def trace_operator_lab(p, sizes, seed):
    from bosonstar import operator_lab as lab
    from bosonstar.config import Tolerances

    tol = Tolerances()
    s = workloads.LAB_S
    grid = lab.PeriodicGrid1D(sizes["lab_n"], 32.0)
    rng = np.random.default_rng(seed)
    x = grid.x

    def pbump(c, w, a):
        d = np.abs(x - c)
        d = np.minimum(d, grid.length - d)
        return a * np.exp(-d ** 2 / (2 * w * w))

    def commutator():
        out = []
        for _ in range(5):
            chi = lab.random_smooth_chi(grid, rng)
            bound = tol.c_cal_commutator * float(np.max(np.abs(lab.spectral_gradient(grid, chi))))
            out.append({"check": "commutator_norm", "bound": bound,
                        "statistic": lab.commutator_norm(grid, s, 1.0, chi)})
        return out

    def localization():
        out = lab.localization_defect(grid, min(s, 0.99), lab.random_smooth_chi(grid, rng))
        return [{"check": "localization_spectrum_low", "statistic": out["eig_min"], "bound": None}]

    def ims():
        part = lab.partition_pair(grid, grid.length / 4.0, grid.length / 24.0)
        return [{"check": "ims_defect", "statistic": lab.ims_defect(grid, min(s, 0.99), part),
                 "bound": None}]

    def subcritical():
        fam = lab.SequenceFamily([pbump(grid.length / 2 + 0.5 * k, grid.length / 24.0, 1.0)
                                  for k in range(8)])
        out = lab.subcritical_check(grid, fam, s, grid.length / 8.0, tol.c_cal_subcritical)
        return [{"check": "subcritical_ratio", "statistic": out["ratio"], "bound": out["bound"],
                 "pass": out["pass"]}]

    def profiles():
        wdt, sep = grid.length / 200.0, grid.length / 60.0
        members = [pbump(grid.length / 2 - sep * k, wdt, 1.0)
                   + pbump(grid.length / 2 + sep * k, wdt, 1.0 / np.sqrt(2.0))
                   for k in range(2, 14)]
        m1 = lab.l2_norm(grid, members[-1]) ** 2
        out = lab.profile_decompose(grid, lab.SequenceFamily(members), s,
                                    eps=0.02 * m1, r0=grid.length / 64.0)
        return [{"check": "profile_count", "statistic": len(out["profiles"]), "bound": 2}]

    entries = []
    for name, fn in zip(LAB_SUITES, (commutator, localization, ims, subcritical, profiles)):
        got = p.timed(f"operator_lab.{name}", fn)
        p.metrics[f"operator_lab.{name}_s"] = p.spans[f"operator_lab.{name}"]
        entries += got
        failing = [e["check"] for e in got if e.get("pass") is False]
        p.done(f"operator_lab.{name}", [f"{c} failed" for c in failing])
    # the inequalities need every suite's entries, so they are judged on the whole report
    problems = checks.operator_problems(entries)
    if problems:
        p.problems["operator_lab.profiles"] += problems


def judged(kind, check):
    """Whether the workload's diagnose command runs this check."""
    wanted = workloads.DIAGNOSE_CHECKS[kind]
    return wanted == "all" or check in wanted.split(",")


def workload_spans(kind):
    """The spans that stand for work the workload's own commands do."""
    if kind == "operator-lab":
        return tuple(f"operator_lab.{s}" for s in LAB_SUITES)
    return (("ground_state.solve", "evolution.evolve", "evolution.save", "config.manifest",
             "evolution.load")
            + tuple(f"diagnostics.{c}" for c in DIAGNOSTIC_CHECKS if judged(kind, c)))


def run_trace(kind, sizes, seed, work_dir, src):
    """One traced pass; returns (result, detail) in the form run.py prints and records."""
    sys.path.insert(0, src)
    p = Pass()
    error = None
    try:
        imports = [fresh_import_s(src) for _ in range(IMPORT_REPEATS)]
        p.metrics["cli.import_s"] = statistics.median(imports)
        p.done("cli.import")
        gs = trace_ground_state(p, sizes)
        trace_spectral(p)
        radial = kind if kind in workloads.RADIAL else "blowup"
        trace_radial(p, radial, sizes, gs, os.path.join(work_dir, "run"))
        trace_operator_lab(p, sizes, seed)
    except Exception:  # a layer that raises fails its operation and ends the pass
        error = traceback.format_exc()
    failed = [op for op in OPERATIONS if p.problems.get(op) != []]
    wrong = [op for op, probs in p.problems.items() if probs]
    traced_s = sum(p.spans.get(name, 0.0) for name in workload_spans(kind))
    for name in sorted(p.metrics):
        print(f"{name:34s} {p.metrics[name]:14.6g} {UNITS[name]}")
    print(f"traced calls standing for the workload's commands: {traced_s:.3f} s")
    result = {
        "correct": not wrong,
        "attempted": len(OPERATIONS),
        "failed": len(failed),
        "metrics": {name: {"value": p.metrics[name], "unit": UNITS[name]}
                    for name in UNITS if name in p.metrics},
    }
    detail = {"spans_s": p.spans, "workload_traced_s": traced_s,
              "problems": {op: p.problems.get(op, ["not reached"]) for op in failed},
              "error": error}
    return result, detail
