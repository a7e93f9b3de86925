"""Command-line entry point and run dispatcher.

Subcommands: ground-state, evolve, diagnose, operator-check.  This module
parses flags into one RunConfig (a flag overrides its config key only when it
is given), calls one function per command, prints, and writes each run's
outputs plus a manifest with content digests into the output directory;
identical config and seed reproduce byte-identical numeric outputs.

Exit codes: 0 success; 2 a config that fails validation, an input file that
cannot be read, lies on another grid or has a non-finite sample, a trajectory
that does not match its manifest or was written by another artifact version, an
unresolved datum, an out_dir that cannot be made (it is made before any compute)
or written into, or an --out that cannot be written; 3 numerical failure
(non-convergence, a non-finite record), one line on stderr with --quiet too;
4 a check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import diagnostics as diag
from . import operator_lab as lab
from .config import (
    ARTIFACT_VERSION,
    ParseError,
    RunConfig,
    ValidationError,
    canonical_json,
    config_from_dict,
    read_config,
    verify_manifest,
    write_manifest,
)
from .evolution import (
    EvolutionControls,
    NonFinite,
    Unresolved,
    evolve,
    load_trajectory,
    save_trajectory,
)
from .ground_state import (
    GroundState,
    GroundStateError,
    gn_ratio,
    solve_ground_state,
)
from .spectral import (
    PROFILES,
    Field,
    ModelParams,
    RadialGrid,
    field_from_json,
    field_to_json,
    mass,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

# the GroundState fields stored in ground_state.json next to its profile
_GS_SCALARS = tuple(f.name for f in dataclasses.fields(GroundState) if f.name != "q")


class InputError(ValueError):
    """An input named by the config cannot be read or cannot be run from."""


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def _load_field(path, grid: RadialGrid) -> Field:
    """The finite field stored at path, which must lie on grid; InputError otherwise."""
    try:
        with open(path) as fh:
            f = field_from_json(json.load(fh))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise InputError(f"cannot read field {path}: {type(exc).__name__}: {exc}") from exc
    if f.grid != grid:
        raise InputError(f"{path} is on grid ({f.grid.n_points}, {f.grid.r_max}), not the config's")
    if not np.all(np.isfinite(f.values)):
        raise InputError(f"{path} has a non-finite sample")
    return f


def _make_u0(cfg: RunConfig, grid: RadialGrid) -> Field:
    spec = cfg.u0
    u0 = (_load_field(spec["file"], grid) if spec["kind"] == "file"
          else PROFILES[spec["kind"]](grid, spec["amplitude"], spec["width"]))
    if "mass" in spec:
        m = mass(u0)
        if not (m > 0 and np.isfinite(spec["mass"] / m)):  # |u|^2 is zero, or underflows
            raise InputError(f"cannot scale u0 to u0.mass = {spec['mass']:g}: its mass is {m:g}")
        u0 = Field(u0.grid, u0.values * np.sqrt(spec["mass"] / m))
    return u0


def run_ground_state(cfg: RunConfig, quiet=False) -> tuple[dict, list]:
    grid = RadialGrid(**cfg.grid)
    seed = cfg.ground_state["seed_profile"]
    if seed.startswith("file:"):
        seed = _load_field(seed[len("file:"):], grid)
    gs = solve_ground_state(grid, tol=cfg.ground_state["tol"],
                            max_iter=cfg.ground_state["max_iter"],
                            gamma=cfg.ground_state["gamma"],
                            seed=seed)
    _say(quiet, f"converged in {gs.iterations} sweeps: M_c = {gs.critical_mass:.12g}, "
                f"residual = {gs.equation_residual:.3g}, pohozaev = {gs.pohozaev_residual:.3g}")
    return {**{name: getattr(gs, name) for name in _GS_SCALARS},
            "gn_ratio": gn_ratio(gs.q), "profile": field_to_json(gs.q)}, []


def load_ground_state_json(path) -> GroundState:
    with open(path) as fh:
        data = json.load(fh)
    mc = data["critical_mass"]
    if type(mc) not in (int, float) or not 0 < mc < np.inf:  # a bool is no mass
        raise InputError(f"{path} has critical_mass {mc!r}, not a finite positive number")
    return GroundState(q=field_from_json(data["profile"]),
                       **{name: data[name] for name in _GS_SCALARS})


def run_evolve(cfg: RunConfig, out_dir, quiet=False) -> list:
    """Evolve, save the trajectory into out_dir and return its file paths."""
    controls = EvolutionControls(**cfg.controls,
                                 resolved_width_cells=cfg.tolerances.resolved_width_cells)
    u0 = _make_u0(cfg, RadialGrid(**cfg.grid))
    try:
        traj = evolve(u0, ModelParams(**cfg.params), controls,
                      os.path.join(out_dir, "snapshots.npy"))
    except Unresolved as exc:
        raise InputError(f"cannot start evolve: {exc}") from exc
    files = save_trajectory(traj, out_dir)
    rec = traj.records
    mass_drift, energy_drift = (np.max(np.abs(c - c[0])) / max(abs(c[0]), 1e-300)  # 0 at u0 = 0
                                for c in (rec["mass"], rec["energy"]))
    _say(quiet, f"termination {traj.termination} after {len(rec['t']) - 1} steps, "
                f"t = {rec['t'][-1]:.6g}, mass drift = {mass_drift:.3g}, "
                f"energy drift = {energy_drift:.3g}, "
                f"boundary mass = {rec['boundary_mass'][-1]:.3g}")
    return list(files.values())


def run_diagnose(cfg: RunConfig, quiet=False) -> tuple[dict, list]:
    try:
        traj_dir = cfg.diagnose["trajectory"]
        with open(os.path.join(traj_dir, "manifest.json")) as fh:
            version = json.load(fh)["version"]
        if version != ARTIFACT_VERSION:
            raise ValueError(f"{traj_dir} holds artifact version {version}, "
                             f"this build reads version {ARTIFACT_VERSION}")
        if not verify_manifest(traj_dir):
            raise ValueError(f"{traj_dir} does not match the digests of its manifest.json")
        traj = load_trajectory(traj_dir)
        gs = load_ground_state_json(cfg.diagnose["ground_state"])
    except KeyError as exc:
        raise InputError(f"cannot read diagnose inputs: missing key {exc}") from exc
    except (ValueError, TypeError, OSError) as exc:
        raise InputError(f"cannot read diagnose inputs: {exc}") from exc
    records, histogram = diag.run_checks(traj, gs, cfg.tolerances, cfg.diagnose["checks"])
    report = {"checks": [r.to_dict() for r in records]}
    if histogram is not None:
        report["measure_histogram"] = histogram
    return report, records


def run_operator_check(cfg: RunConfig, quiet=False) -> tuple[dict, list]:
    op = cfg.operator_check
    records = lab.run_suite(op["suite"], lab.PeriodicGrid1D(op["n"], op["length"]), op["s"],
                            cfg.tolerances, cfg.seed)
    return {"suite": op["suite"], "n": op["n"], "s": op["s"],
            "checks": [r.to_dict() for r in records]}, records


# the JSON file and the runner of each command but evolve; a runner returns
# (file contents, check records)
_REPORTS = {"ground-state": ("ground_state.json", run_ground_state),
            "diagnose": ("report.json", run_diagnose),
            "operator-check": ("report.json", run_operator_check)}


def run(cfg: RunConfig, quiet: bool = False) -> tuple[int, str]:
    """Dispatch a validated config; returns (exit_code, out_dir).  Only a run that
    exits 0 or 4 leaves a manifest.json in out_dir."""
    out_dir = cfg.out_dir
    t0 = time.time()
    try:
        os.makedirs(out_dir, exist_ok=True)
        # an earlier run's manifest would vouch for out_dir if this run fails; a diagnose
        # trajectory is never out_dir (config_from_dict rejects that)
        manifest = os.path.join(out_dir, "manifest.json")
        if os.path.exists(manifest):
            os.remove(manifest)
        if cfg.command == "evolve":
            outputs, records = run_evolve(cfg, out_dir, quiet), []
        else:
            name, runner = _REPORTS[cfg.command]
            result, records = runner(cfg, quiet)
            outputs = [os.path.join(out_dir, name)]
            _write_json(outputs[0], result)
        write_manifest(cfg, out_dir, time.time() - t0, outputs)
    except (GroundStateError, NonFinite) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL, out_dir
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, out_dir
    except OSError as exc:  # an input that cannot be read raises InputError instead
        print(f"output error: cannot write into {out_dir}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, out_dir
    for rec in records:
        _say(quiet, rec.line())
    return (EXIT_OK if all(r.passed for r in records) else EXIT_CHECK_FAILED), out_dir


def _build_parser() -> argparse.ArgumentParser:
    # every flag defaults to SUPPRESS, so only the flags that are given reach
    # the config, and a subcommand's unset globals keep the values parsed
    # before the subcommand name; a dotted dest is the config key a flag sets
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON run config (overridden by the flags that are given)")
    common.add_argument("--out-dir", dest="out_dir", help="output directory")
    common.add_argument("--seed", type=int, help="rng seed for randomized suites")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="bosonstar", parents=[common],
        description="Radial laboratory for the L2-critical boson star equation")
    sub = parser.add_subparsers(dest="command")

    def command(name, help):
        return sub.add_parser(name, parents=[common], help=help,
                              argument_default=argparse.SUPPRESS)

    gs = command("ground-state", "solve the ground-state profile")
    gs.add_argument("--n", dest="grid.n_points", type=int)
    gs.add_argument("--rmax", dest="grid.r_max", type=float)
    gs.add_argument("--tol", dest="ground_state.tol", type=float)
    gs.add_argument("--max-iter", dest="ground_state.max_iter", type=int)
    gs.add_argument("--seed-profile", dest="ground_state.seed_profile",
                    help="gaussian | sech | file:<path>")
    gs.add_argument("--out", help="output JSON path (default <out-dir>/ground_state.json)")

    command("evolve", "integrate an initial datum")

    dg = command("diagnose", "run checks on a stored trajectory")
    dg.add_argument("--trajectory", dest="diagnose.trajectory")
    dg.add_argument("--ground-state", dest="diagnose.ground_state")
    dg.add_argument("--checks", dest="diagnose.checks",
                    help="all, or a comma-separated subset of " + ",".join(diag.CHECKS))
    dg.add_argument("--out", help="output JSON path (default <out-dir>/report.json)")

    oc = command("operator-check", "dense fractional-operator suite")
    oc.add_argument("--suite", dest="operator_check.suite",
                    choices=("all", *lab.SUITES))
    oc.add_argument("--n", dest="operator_check.n", type=int)
    oc.add_argument("--s", dest="operator_check.s", type=float)
    oc.add_argument("--out", help="output JSON path (default <out-dir>/report.json)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    quiet = args.pop("quiet", False)
    out_override = args.pop("out", None)
    if command is None:
        parser.print_help()
        return EXIT_VALIDATION
    if command == "evolve" and not config_path:
        print("config error: evolve requires --config <json>", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        data = read_config(config_path) if config_path else {}
        data["command"] = command
        for key, value in args.items():  # the flags that were given
            section, _, name = key.rpartition(".")
            target = data.setdefault(section, {}) if section else data
            if isinstance(target, dict):  # else config_from_dict names the section
                target[name] = value
        cfg = config_from_dict(data)  # checked once, with the flags in
        if out_override and os.path.isdir(out_override):
            raise ValidationError(["--out (an existing directory, not a report file)"])
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    code, run_dir = run(cfg, quiet=quiet)
    if out_override and code in (EXIT_OK, EXIT_CHECK_FAILED):  # this run wrote the report
        src = os.path.join(run_dir, _REPORTS[command][0])
        if os.path.abspath(src) != os.path.abspath(out_override):
            try:
                os.makedirs(os.path.dirname(os.path.abspath(out_override)), exist_ok=True)
                with open(src) as fin, open(out_override, "w") as fout:
                    fout.write(fin.read())
            except OSError as exc:  # the run's outputs and manifest stay in run_dir
                failed = f"; its checks failed, see {src}" if code == EXIT_CHECK_FAILED else ""
                print(f"output error: cannot write --out {out_override}: {exc}{failed}",
                      file=sys.stderr)
                return EXIT_VALIDATION  # the requested report is missing, so 2 replaces 4
    return code


if __name__ == "__main__":
    sys.exit(main())
