"""Command-line entry point and run dispatcher.

Subcommands: ground-state, evolve, diagnose, operator-check.  Each run writes
its outputs plus a manifest with content digests into the output directory;
identical config and seed reproduce byte-identical numeric outputs.

Exit codes: 0 success, 2 config/validation failure, unreadable input files or
an evolve that cannot start (invalid controls, unresolved datum, a u0 file on
another grid), 3 numerical failure (non-convergence, divergence, non-finite
values), 4 a diagnostic check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import diagnostics as diag
from . import operator_lab as lab
from .config import (
    ParseError,
    RunConfig,
    ValidationError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    load_config,
    write_manifest,
)
from .evolution import (
    STEP_FLOOR,
    EvolutionControls,
    NonFinite,
    evolve,
    load_trajectory,
    require_resolved,
    save_trajectory,
)
from .ground_state import (
    GroundStateError,
    gn_ratio,
    solve_ground_state,
)
from .spectral import (
    Field,
    ModelParams,
    RadialGrid,
    boundary_mass,
    field_from_json,
    field_to_json,
    gaussian_field,
    load_field_json,
    mass,
    sech_field,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

# how an operator-check statistic must relate to its bound; "<=" for unlisted checks
_RELATION = {"localization_spectrum_low": ">=", "ims_defect": ">=", "profile_count": "=="}


class InputError(ValueError):
    """An input named by the config cannot be read or cannot be run from."""


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def _make_grid(cfg: RunConfig) -> RadialGrid:
    return RadialGrid(int(cfg.grid["n_points"]), float(cfg.grid["r_max"]))


def _make_u0(cfg: RunConfig, grid: RadialGrid) -> Field:
    spec = cfg.u0
    kind = spec["kind"]
    if kind == "file":
        u0 = load_field_json(spec["file"])
        if u0.grid != grid:
            raise ValueError(f"u0 file grid ({u0.grid.n_points}, {u0.grid.r_max}) differs "
                             f"from the config grid ({grid.n_points}, {grid.r_max})")
    elif kind == "gaussian":
        u0 = gaussian_field(grid, spec.get("amplitude", 1.0), spec.get("width", 1.0))
    elif kind == "sech":
        u0 = sech_field(grid, spec.get("amplitude", 1.0), spec.get("width", 1.0))
    else:
        raise ValidationError(["u0.kind"])
    if "mass" in spec and spec["mass"] is not None:
        target = float(spec["mass"])
        u0 = Field(u0.grid, u0.values * np.sqrt(target / mass(u0)))
    return u0


def run_ground_state(cfg: RunConfig, quiet=False) -> dict:
    grid = _make_grid(cfg)
    seed = cfg.ground_state["seed_profile"]
    if isinstance(seed, str) and seed.startswith("file:"):
        seed = load_field_json(seed[len("file:"):])
    gs = solve_ground_state(grid, tol=cfg.ground_state["tol"],
                            max_iter=cfg.ground_state["max_iter"],
                            gamma=cfg.ground_state["gamma"],
                            seed=seed)
    _say(quiet, f"converged in {gs.iterations} sweeps: M_c = {gs.critical_mass:.12g}, "
                f"residual = {gs.equation_residual:.3g}, pohozaev = {gs.pohozaev_residual:.3g}")
    return {
        "critical_mass": gs.critical_mass,
        "c_opt": gs.c_opt,
        "pohozaev_residual": gs.pohozaev_residual,
        "equation_residual": gs.equation_residual,
        "iterations": gs.iterations,
        "final_update_norm": gs.final_update_norm,
        "gn_ratio": gn_ratio(gs.q),
        "profile": field_to_json(gs.q),
    }


def load_ground_state_json(path):
    from .ground_state import GroundState

    with open(path) as fh:
        data = json.load(fh)
    q = field_from_json(data["profile"])
    return GroundState(q=q, critical_mass=data["critical_mass"], c_opt=data["c_opt"],
                       pohozaev_residual=data["pohozaev_residual"],
                       iterations=data["iterations"],
                       final_update_norm=data["final_update_norm"],
                       equation_residual=data["equation_residual"])


def run_evolve(cfg: RunConfig, out_dir, quiet=False):
    grid = _make_grid(cfg)
    params = ModelParams(float(cfg.params["mass"]))
    ctrl_kwargs = dict(cfg.controls)
    ctrl_kwargs.setdefault("resolved_width_cells", cfg.tolerances.resolved_width_cells)
    try:
        controls = EvolutionControls(**ctrl_kwargs)
        u0 = _make_u0(cfg, grid)
        require_resolved(u0)
    except (ValueError, TypeError, OSError) as exc:
        raise InputError(f"cannot start evolve: {exc}") from exc
    traj = evolve(u0, params, controls)
    files = save_trajectory(traj, out_dir)
    rec = traj.records
    e0 = abs(rec["energy"][0])
    energy_drift = np.max(np.abs(rec["energy"] - rec["energy"][0])) / max(e0, 1e-300)
    _say(quiet, f"termination {traj.termination} after {len(rec['t']) - 1} steps, "
                f"t = {rec['t'][-1]:.6g}, mass drift = "
                f"{np.max(np.abs(rec['mass'] - rec['mass'][0])) / rec['mass'][0]:.3g}, "
                f"energy drift = {energy_drift:.3g}, "
                f"boundary mass = {rec['boundary_mass'][-1]:.3g}")
    return traj, list(files.values())


def run_diagnose(cfg: RunConfig, quiet=False) -> diag.DiagnosticsReport:
    tol = cfg.tolerances
    try:
        traj = load_trajectory(cfg.diagnose["trajectory"])
        gs = load_ground_state_json(cfg.diagnose["ground_state"])
    except KeyError as exc:
        raise InputError(f"cannot read diagnose inputs: missing key {exc}") from exc
    except (ValueError, TypeError, OSError) as exc:
        raise InputError(f"cannot read diagnose inputs: {exc}") from exc
    checks = cfg.diagnose.get("checks", "all")
    wanted = None if checks == "all" else set(
        checks.split(",") if isinstance(checks, str) else checks)

    def want(name):
        return wanted is None or name in wanted

    report = diag.DiagnosticsReport()
    bank_radii = [r for r in tol.bank_radii if r < 0.9 * traj.grid.r_max]
    bank = diag.cutoff_bank(traj.grid, bank_radii)
    if want("propagation"):
        for chi in bank:
            report.records.append(
                diag.propagation_bound_check(traj, chi, tol.c_cal_propagation))
    if want("tightness"):
        try:
            r_star = diag.tightness_check(traj, 0.01 * traj.initial_mass)
            report.records.append(diag.CheckRecord(
                "tightness", {"eps_fraction": 0.01}, r_star, traj.grid.r_max,
                passed=bool(r_star < traj.grid.r_max)))
        except diag.NotTightOnGrid:
            report.records.append(diag.CheckRecord(
                "tightness", {"eps_fraction": 0.01}, float("inf"), traj.grid.r_max, False))
    if want("concentration"):
        report.records.extend(diag.minimal_concentration_check(
            traj, gs, tol.conc_mass_fraction, center_cells=tol.conc_center_cells))
        for rec in report.records:
            if rec.check == "minimal_concentration" and rec.params.get("trace"):
                report.concentration_trace = rec.params["trace"]
    if want("measure"):
        hist, cauchy = diag.blowup_measure(traj, int(cfg.diagnose.get("bins", tol.histogram_bins)),
                                           cutoffs=bank, c_cal=tol.c_cal_propagation,
                                           pad=tol.cauchy_pad)
        report.measure_histogram = hist
        report.records.extend(cauchy)
    if want("exterior"):
        # strong L2(|x| >= R) convergence is a statement about blowup solutions
        if traj.termination != STEP_FLOOR:
            report.records.append(diag.CheckRecord(
                "exterior_cauchy", {"applicable": False, "termination": traj.termination},
                float("nan"), float("nan"), passed=True))
        else:
            try:
                report.records.extend(diag.exterior_convergence_check(
                    traj, tol.exterior_radius, traj.params, final_frac=tol.exterior_final_frac))
            except diag.InsufficientSnapshots as exc:
                report.records.append(diag.CheckRecord(
                    "exterior_cauchy", {"error": str(exc)}, float("nan"), float("nan"), False))
    if want("newton"):
        from .spectral import coulomb_potential_density

        worst = 0.0
        for s in traj.snapshots:
            v = coulomb_potential_density(np.abs(s.field.values) ** 2, traj.grid)
            worst = max(worst, float(np.max(traj.grid.r * v)))
        report.records.append(diag.CheckRecord(
            "newton_bound", {}, worst, traj.initial_mass * (1.0 + tol.newton_slack),
            passed=bool(worst <= traj.initial_mass * (1.0 + tol.newton_slack))))
    if want("virial"):
        try:
            report.records.append(diag.virial_check(
                traj, traj.params, tol.virial_envelope_slack, tol.virial_residual))
        except diag.InsufficientSnapshots as exc:
            report.records.append(diag.CheckRecord(
                "virial_envelope", {"error": str(exc)}, float("nan"), float("nan"), False))
    for rec in report.records:
        _say(quiet, f"  [{'PASS' if rec.passed else 'FAIL'}] {rec.check}: "
                    f"statistic={rec.statistic:.6g} bound={rec.bound:.6g}")
    return report


def run_operator_check(cfg: RunConfig, quiet=False) -> tuple[dict, list[diag.CheckRecord]]:
    """Run the dense operator suite; returns (report JSON, check records)."""
    tol = cfg.tolerances
    op = cfg.operator_check
    suite = op["suite"]
    n = int(op["n"])
    length = float(op.get("length", 32.0))
    s = float(op["s"])
    grid = lab.PeriodicGrid1D(n, length)
    rng = np.random.default_rng(cfg.seed)
    records = []

    def add(check, params, stat, bound, passed):
        records.append(diag.CheckRecord(check, params, stat, bound, bool(passed)))

    if suite in ("commutator", "all"):
        for _ in range(5):
            chi = lab.random_smooth_chi(grid, rng)
            cn = lab.commutator_norm(grid, s, 1.0, chi)
            bound = tol.c_cal_commutator * float(np.max(np.abs(lab.spectral_gradient(grid, chi))))
            add("commutator_norm", {"s": s}, cn, bound, cn <= bound)
    if suite in ("localization", "all"):
        chi = lab.random_smooth_chi(grid, rng)
        out = lab.localization_defect(grid, min(s, 0.99), chi)
        high = out["upper_bound"] * (1 + 1e-6)
        add("localization_spectrum_low", {"s": s}, out["eig_min"], -1e-8, out["eig_min"] >= -1e-8)
        add("localization_spectrum_high", {"s": s}, out["eig_max"], high, out["eig_max"] <= high)
        add("double_commutator", {"s": s}, out["double_commutator_norm"],
            out["double_commutator_bound"],
            out["double_commutator_norm"] <= out["double_commutator_bound"])
    if suite in ("ims", "all"):
        part = lab.partition_pair(grid, grid.length / 4.0, grid.length / 24.0)
        d = lab.ims_defect(grid, min(s, 0.99), part)
        add("ims_defect", {"s": s}, d, -1e-8, d >= -1e-8)
    x = grid.x

    def pbump(c, w, a):
        dd = np.abs(x - c)
        dd = np.minimum(dd, grid.length - dd)
        return a * np.exp(-dd**2 / (2 * w * w))

    if suite in ("subcritical", "all"):
        fam = lab.SequenceFamily(
            [pbump(grid.length / 2 + 0.5 * k, grid.length / 24.0, 1.0) for k in range(8)])
        out = lab.subcritical_check(grid, fam, s, grid.length / 8.0, tol.c_cal_subcritical)
        add("subcritical_ratio", {"s": s}, out["ratio"], out["bound"], out["pass"])
    if suite in ("profiles", "all"):
        wdt = grid.length / 200.0
        sep = grid.length / 60.0
        members = [pbump(grid.length / 2 - sep * k, wdt, 1.0)
                   + pbump(grid.length / 2 + sep * k, wdt, 1.0 / np.sqrt(2.0))
                   for k in range(2, 14)]
        m1 = lab.l2_norm(grid, members[-1]) ** 2
        out = lab.profile_decompose(grid, lab.SequenceFamily(members), s,
                                    eps=0.02 * m1, r0=grid.length / 64.0)
        count = len(out["profiles"])
        budget = out["mass_budget"] * (1 + 1e-6)
        add("profile_count", {}, count, 2, count == 2)
        add("profile_mass_budget", {}, out["profile_mass_sum"], budget,
            out["profile_mass_sum"] <= budget)
    for rec in records:
        _say(quiet, f"  [{'PASS' if rec.passed else 'FAIL'}] {rec.check}: "
                    f"statistic={rec.statistic:.6g} {_RELATION.get(rec.check, '<=')} "
                    f"bound={rec.bound:.6g}")
    return {"suite": suite, "n": n, "s": s, "checks": [r.to_dict() for r in records]}, records


def run(cfg: RunConfig, quiet: bool = False) -> tuple[int, str]:
    """Dispatch a validated config; returns (exit_code, out_dir)."""
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    outputs = []
    code = EXIT_OK
    try:
        if cfg.command == "ground-state":
            result = run_ground_state(cfg, quiet)
            path = os.path.join(out_dir, "ground_state.json")
            _write_json(path, result)
            outputs.append(path)
        elif cfg.command == "evolve":
            _, files = run_evolve(cfg, out_dir, quiet)
            outputs.extend(files)
        elif cfg.command in ("diagnose", "operator-check"):
            if cfg.command == "diagnose":
                report = run_diagnose(cfg, quiet)
                result, records = report.to_json(), report.records
            else:
                result, records = run_operator_check(cfg, quiet)
            path = os.path.join(out_dir, "report.json")
            _write_json(path, result)
            outputs.append(path)
            if not all(r.passed for r in records):
                code = EXIT_CHECK_FAILED
    except (GroundStateError, NonFinite) as exc:
        _say(quiet, f"numerical failure: {exc}")
        return EXIT_NUMERICAL, out_dir
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, out_dir
    write_manifest(cfg, out_dir, time.time() - t0, outputs)
    return code, out_dir


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset globals from clobbering values that
    # were already parsed before the subcommand name
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON run config (overridden by subcommand flags)")
    common.add_argument("--out-dir", help="output directory")
    common.add_argument("--seed", type=int, help="rng seed for randomized suites")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="bosonstar", parents=[common],
        description="Radial laboratory for the L2-critical boson star equation")
    sub = parser.add_subparsers(dest="command")

    gs = sub.add_parser("ground-state", parents=[common],
                        help="solve the ground-state profile")
    gs.add_argument("--n", type=int, default=4096)
    gs.add_argument("--rmax", type=float, default=128.0)
    gs.add_argument("--tol", type=float, default=1e-10)
    gs.add_argument("--max-iter", type=int, default=2000)
    gs.add_argument("--seed-profile", default="gaussian",
                    help="gaussian | sech | file:<path>")
    gs.add_argument("--out", help="output JSON path (default <out-dir>/ground_state.json)")

    sub.add_parser("evolve", parents=[common], help="integrate an initial datum")

    dg = sub.add_parser("diagnose", parents=[common], help="run checks on a stored trajectory")
    dg.add_argument("--trajectory", required=True)
    dg.add_argument("--ground-state", required=True)
    dg.add_argument("--checks", default="all")
    dg.add_argument("--out", default=None)

    oc = sub.add_parser("operator-check", parents=[common], help="dense fractional-operator suite")
    oc.add_argument("--suite", default="all",
                    choices=["commutator", "localization", "ims", "subcritical",
                             "profiles", "all"])
    oc.add_argument("--n", type=int, default=128)
    oc.add_argument("--s", type=float, default=0.5)
    oc.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    out_dir = getattr(args, "out_dir", None)
    seed = getattr(args, "seed", None)
    quiet = getattr(args, "quiet", False)
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    if args.command == "evolve" and not config_path:
        print("config error: evolve requires --config <json>", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if config_path:
            cfg = load_config(config_path)
        else:
            cfg = config_from_dict({"command": args.command})
        data = config_to_dict(cfg)
        data["command"] = args.command
        if args.command == "ground-state":
            data["grid"] = {"n_points": args.n, "r_max": args.rmax}
            data["ground_state"] = {**data["ground_state"], "tol": args.tol,
                                    "max_iter": args.max_iter,
                                    "seed_profile": args.seed_profile}
        elif args.command == "diagnose":
            data["diagnose"] = {**data["diagnose"], "trajectory": args.trajectory,
                                "ground_state": args.ground_state, "checks": args.checks}
        elif args.command == "operator-check":
            data["operator_check"] = {**data["operator_check"], "suite": args.suite,
                                      "n": args.n, "s": args.s}
        if out_dir:
            data["out_dir"] = out_dir
        if seed is not None:
            data["seed"] = seed
        cfg = config_from_dict(data)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    code, run_dir = run(cfg, quiet=quiet)
    out_override = getattr(args, "out", None)
    if out_override:
        src = os.path.join(run_dir, "ground_state.json" if args.command == "ground-state"
                           else "report.json")
        if os.path.exists(src) and os.path.abspath(src) != os.path.abspath(out_override):
            os.makedirs(os.path.dirname(os.path.abspath(out_override)), exist_ok=True)
            with open(src) as fin, open(out_override, "w") as fout:
                fout.write(fin.read())
    return code


if __name__ == "__main__":
    sys.exit(main())
