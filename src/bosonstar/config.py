"""Run configuration, validation, and reproducibility plumbing.

Configs are strict JSON: unknown keys are rejected, every tolerance of the
check functions lives here with a documented default (the suites still fix
four slack constants, see README), and a config round-trips through
serialization bit-exactly.  A finished run writes a manifest with SHA-256
digests of its outputs so results can be verified on reload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field

__all__ = [
    "Tolerances",
    "RunConfig",
    "ParseError",
    "ValidationError",
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "canonical_json",
    "file_digest",
    "write_manifest",
    "verify_manifest",
    "ARTIFACT_VERSION",
]

ARTIFACT_VERSION = "0.2.0"


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__("invalid config fields: " + ", ".join(self.fields))


@dataclass(frozen=True)
class Tolerances:
    """Every slack constant used by the acceptance checks, with its meaning.

    Calibrated constants (c_cal_*) were measured once on the standard grid
    family and frozen here with margin; see README for the calibration runs.
    """

    mass_drift: float = 1e-9              # cumulative relative mass drift per run
    energy_drift: float = 1e-6            # relative energy drift of the subcritical run
    strang_ratio_lo: float = 3.0          # dt-halving drift-reduction window (2nd order)
    strang_ratio_hi: float = 5.0
    subcritical_growth_cap: float = 5.0   # sup ||u||_{H^{1/2}} / initial, global run
    blowup_growth_min: float = 10.0       # required H^{1/2} growth of a blowup run
    monotone_tail_steps: int = 100        # accepted steps that must grow monotonically
    boundary_mass_fraction: float = 1e-8  # resolved-datum exterior mass bound
    resolved_width_cells: float = 10.0    # width (in dr) below which records are unresolved
    conc_mass_fraction: float = 0.9       # lambda(t)-ball mass must reach this times M_c
    conc_center_cells: float = 3.0        # concentration center within this many dr of 0
    exterior_radius: float = 5.0          # R for the exterior L2 Cauchy check
    exterior_final_frac: float = 0.05     # final exterior distance vs sqrt(mass)
    virial_envelope_slack: float = 0.1    # leading coeff <= 2E + slack*|2E|
    virial_residual: float = 0.05         # relative RMS of the quadratic virial fit
    newton_slack: float = 1e-6            # r V(r) <= mass (1 + slack) along snapshots
    gn_slack: float = 1e-6                # gn_ratio(f) <= c_opt (1 + slack)
    pohozaev_tol: float = 1e-6            # ground-state dilation-identity residual
    equation_residual_tol: float = 1e-8   # ground-state equation residual
    mc_grid_stability: float = 1e-4       # M_c change under n -> 2n
    mc_seed_agreement: float = 1e-6       # M_c gaussian vs sech seeds
    cauchy_pad: float = 1e-6              # additive pad in the measure-oscillation bound
    histogram_bins: int = 64
    dilation_factor: float = 2.0          # allowed spread of R * max|dM_R/dt|
    bank_radii: tuple = (2.0, 4.0, 8.0, 16.0)
    c_cal_propagation: float = 8.0        # 1.5x the saturating free-flow flux at mass 2 M_c
    c_cal_commutator: float = 1.5         # 1.5x the max ratio over 20 random smooth chi
    c_cal_subcritical: float = 0.6        # 3x headroom over the corpus maximum ratio


_GRID_KEYS = {"n_points", "r_max"}
_PARAMS_KEYS = {"mass"}
_CONTROL_KEYS = {"dt0", "t_end", "cfl", "dt_floor", "snapshot_stride", "h_half_cap",
                 "include_nonlinearity", "max_snapshots"}
_GS_KEYS = {"tol", "max_iter", "gamma", "seed_profile"}
_U0_KEYS = {"kind", "amplitude", "width", "file", "mass"}
_DIAG_KEYS = {"trajectory", "ground_state", "checks"}
_OP_KEYS = {"suite", "n", "length", "s"}
_TOP_KEYS = {"command", "grid", "params", "controls", "ground_state", "u0",
             "diagnose", "operator_check", "tolerances", "seed", "out_dir"}
_COMMANDS = {"ground-state", "evolve", "diagnose", "operator-check"}


@dataclass(frozen=True)
class RunConfig:
    """A validated run.  These defaults are the only defaults of the run
    settings (the controls default in evolution.EvolutionControls); the CLI
    flags override them only when given."""

    command: str
    grid: dict = dc_field(default_factory=lambda: {"n_points": 4096, "r_max": 128.0})
    params: dict = dc_field(default_factory=lambda: {"mass": 0.0})
    controls: dict = dc_field(default_factory=dict)
    ground_state: dict = dc_field(default_factory=lambda: {
        "tol": 1e-10, "max_iter": 2000, "gamma": 1.5, "seed_profile": "gaussian"})
    u0: dict = dc_field(default_factory=lambda: {"kind": "gaussian", "amplitude": 1.0, "width": 1.0})
    diagnose: dict = dc_field(default_factory=lambda: {"checks": "all"})
    operator_check: dict = dc_field(default_factory=lambda: {
        "suite": "all", "n": 128, "length": 32.0, "s": 0.5})
    tolerances: Tolerances = dc_field(default_factory=Tolerances)
    seed: int = 0
    out_dir: str = "runs/out"


def _check_keys(obj: dict, allowed: set, prefix: str, bad: list):
    for key in obj:
        if key not in allowed:
            bad.append(f"{prefix}{key} (unknown)")


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw dict (strict mode) and fill defaults.

    Raises ValidationError naming every violated field.
    """
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    bad: list[str] = []
    _check_keys(data, _TOP_KEYS, "", bad)
    command = data.get("command")
    if command not in _COMMANDS:
        bad.append("command")
    for name, keys in (("grid", _GRID_KEYS), ("params", _PARAMS_KEYS),
                       ("controls", _CONTROL_KEYS), ("ground_state", _GS_KEYS),
                       ("u0", _U0_KEYS), ("diagnose", _DIAG_KEYS),
                       ("operator_check", _OP_KEYS)):
        sub = data.get(name, {})
        if not isinstance(sub, dict):
            bad.append(name)
            continue
        _check_keys(sub, keys, name + ".", bad)

    defaults = RunConfig(command=command if command in _COMMANDS else "ground-state")
    grid = {**defaults.grid, **data.get("grid", {})}
    params = {**defaults.params, **data.get("params", {})}
    controls = {**data.get("controls", {})}
    gs = {**defaults.ground_state, **data.get("ground_state", {})}
    u0 = {**defaults.u0, **data.get("u0", {})}
    diag = {**defaults.diagnose, **data.get("diagnose", {})}
    op = {**defaults.operator_check, **data.get("operator_check", {})}

    tol_data = data.get("tolerances", {})
    if not isinstance(tol_data, dict):
        bad.append("tolerances")
        tol_data = {}
    tol_fields = {f.name for f in dataclasses.fields(Tolerances)}
    _check_keys(tol_data, tol_fields, "tolerances.", bad)
    tol_kwargs = {k: (tuple(v) if k == "bank_radii" else v)
                  for k, v in tol_data.items() if k in tol_fields}
    tolerances = Tolerances(**tol_kwargs)

    if not (isinstance(grid.get("n_points"), int) and grid["n_points"] >= 2):
        bad.append("grid.n_points")
    if not (isinstance(grid.get("r_max"), (int, float)) and grid["r_max"] > 0):
        bad.append("grid.r_max")
    if not (isinstance(params.get("mass"), (int, float)) and params["mass"] >= 0):
        bad.append("params.mass")
    if not (isinstance(gs.get("tol"), (int, float)) and gs["tol"] > 0):
        bad.append("ground_state.tol")
    if not (isinstance(gs.get("max_iter"), int) and gs["max_iter"] >= 1):
        bad.append("ground_state.max_iter")
    for name, val in (("dt0", controls.get("dt0")), ("dt_floor", controls.get("dt_floor")),
                      ("t_end", controls.get("t_end"))):
        if val is not None and (not isinstance(val, (int, float)) or val < 0):
            bad.append(f"controls.{name}")
    for fname in ("mass_drift", "energy_drift", "pohozaev_tol", "equation_residual_tol",
                  "gn_slack", "cauchy_pad", "c_cal_propagation", "c_cal_commutator",
                  "c_cal_subcritical"):
        if getattr(tolerances, fname) <= 0:
            bad.append(f"tolerances.{fname}")
    if u0.get("kind") not in {"gaussian", "sech", "file"}:
        bad.append("u0.kind")
    if op.get("suite") not in {"commutator", "localization", "ims", "subcritical",
                               "profiles", "all"}:
        bad.append("operator_check.suite")
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        bad.append("seed")
        seed = 0
    if bad:
        raise ValidationError(sorted(bad))

    return RunConfig(command=command, grid=grid, params=params, controls=controls,
                     ground_state=gs, u0=u0, diagnose=diag, operator_check=op,
                     tolerances=tolerances, seed=seed,
                     out_dir=data.get("out_dir", defaults.out_dir))


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["tolerances"]["bank_radii"] = list(out["tolerances"]["bank_radii"])
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def load_config(path) -> RunConfig:
    """Parse and validate a config file; ParseError / ValidationError on failure."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(data)


# --- manifests ----------------------------------------------------------------

def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(cfg: RunConfig, out_dir, wall_clock: float, outputs: list) -> str:
    digests = {os.path.relpath(p, out_dir): file_digest(p) for p in outputs}
    manifest = {
        "config": config_to_dict(cfg),
        "version": ARTIFACT_VERSION,
        "wall_clock": wall_clock,
        "digests": digests,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        fh.write(canonical_json(manifest))
    return path


def verify_manifest(out_dir) -> bool:
    """Recompute output digests and compare against the stored manifest."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    for rel, digest in manifest["digests"].items():
        if file_digest(os.path.join(out_dir, rel)) != digest:
            return False
    return True
