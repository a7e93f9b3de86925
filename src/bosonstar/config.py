"""Run configuration, validation, and reproducibility plumbing.

A config is strict JSON, checked once when it is read: a key must have a
default, its value the default's type, and its range passes the constructor
of the object that uses it.  Every slack constant a command reads has its one
documented default in Tolerances (six are still fixed in the code, see
README); the acceptance suite's pass thresholds live in that suite.  A run
writes a manifest with SHA-256 digests of its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field as dc_field

from .diagnostics import parse_checks
from .evolution import EvolutionControls
from .operator_lab import SUITES, PeriodicGrid1D
from .spectral import PROFILES, ModelParams, RadialGrid

__all__ = [
    "Tolerances",
    "RunConfig",
    "ParseError",
    "ValidationError",
    "read_config",
    "config_to_dict",
    "config_from_dict",
    "canonical_json",
    "file_digest",
    "write_manifest",
    "verify_manifest",
    "ARTIFACT_VERSION",
]

ARTIFACT_VERSION = "0.3.0"


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__("invalid config fields: " + ", ".join(self.fields))


@dataclass(frozen=True)
class Tolerances:
    """Every slack constant that a command reads, with its meaning.

    Calibrated constants (c_cal_*) were measured once on the standard grid
    family and frozen here with margin; see README for the calibration runs.
    """

    resolved_width_cells: float = 10.0    # snapshots narrower (in dr) are unresolved; applied by evolve
    conc_mass_fraction: float = 0.9       # lambda(t)-ball mass must reach this times M_c
    conc_center_cells: float = 3.0        # concentration center within this many dr of 0
    exterior_radius: float = 5.0          # R for the exterior L2 Cauchy check
    exterior_final_frac: float = 0.05     # final exterior distance vs sqrt(mass)
    virial_envelope_slack: float = 0.1    # leading coeff <= 2E + slack*|2E|
    virial_residual: float = 0.05         # relative RMS of the quadratic virial fit
    newton_slack: float = 1e-6            # r V(r) <= mass (1 + slack) along snapshots
    cauchy_pad: float = 1e-6              # additive pad in the measure-oscillation bound
    histogram_bins: int = 64
    bank_radii: tuple = (2.0, 4.0, 8.0, 16.0)
    c_cal_propagation: float = 8.0        # 1.5x the saturating free-flow flux at mass 2 M_c
    c_cal_commutator: float = 1.5         # 1.5x the max ratio over 20 random smooth chi
    c_cal_subcritical: float = 0.6        # 3x headroom over the corpus maximum ratio

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():  # bank_radii: one radius or more
            values = value if name == "bank_radii" else (value,)
            if not (values and all(v > 0 for v in values)):
                raise ValueError(f"{name} must be positive")
        if not isinstance(self.histogram_bins, int):
            raise ValueError("histogram_bins must be an integer")


# the keys without a default, each with a value of the type it takes
_OPTIONAL = {"u0.file": "", "u0.mass": 0.0, "diagnose.trajectory": "", "diagnose.ground_state": ""}
_COMMANDS = ("ground-state", "evolve", "diagnose", "operator-check")


@dataclass(frozen=True)
class RunConfig:
    """A validated run.  Its defaults, with those of EvolutionControls and
    Tolerances, are the only defaults of the run settings and the schema of
    the config; the CLI flags override them only when given."""

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


def _finite(numbers) -> tuple | None:
    """The numbers as floats, or None if one is NaN, infinite or too large for a
    float: JSON reads NaN, Infinity, 1e400 and integers of any length."""
    try:
        floats = tuple(map(float, numbers))
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _checked(given: dict, schema: dict, prefix: str, bad: list) -> dict:
    """The entries of given whose key is in schema (or _OPTIONAL) and whose value has
    the type of the schema's, each other one going to bad.  An int passes as a float
    (and becomes one), a list of numbers as a tuple of floats; a bool is no number,
    and each float must be finite."""
    out = {}
    for key, value in given.items():
        name = prefix + key
        like = schema.get(key, _OPTIONAL.get(name) if prefix else None)  # no top-level "u0.file"
        numbers = ([value] if isinstance(like, float) else
                   value if isinstance(like, tuple) and isinstance(value, (list, tuple)) else None)
        if like is None:
            bad.append(f"{name} (unknown)")
        elif isinstance(like, dict) and isinstance(value, dict):
            out[key] = _checked(value, like, name + ".", bad)
        elif numbers is not None and all(isinstance(v, float) or type(v) is int for v in numbers):
            floats = _finite(numbers)
            if floats is None:
                bad.append(f"{name} (must be a finite number)")
            else:
                out[key] = floats if isinstance(like, tuple) else floats[0]
        elif type(value) is type(like) and not isinstance(like, tuple):
            out[key] = value
        else:
            kind = "list" if isinstance(like, tuple) else type(like).__name__
            bad.append(f"{name} (expected {kind}, got {type(value).__name__})")
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw dict (strict mode) and fill defaults; ValidationError
    names every violated field (the first one of each object).
    """
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    bad: list[str] = []
    schema = dataclasses.asdict(RunConfig(command=""))
    schema["controls"] = {f.name: f.default for f in dataclasses.fields(EvolutionControls)
                          if f.name != "resolved_width_cells"}
    given = _checked(data, schema, "", bad)
    cfg = {name: {**default, **given.get(name, {})} if isinstance(default, dict)
           else given.get(name, default) for name, default in schema.items()}
    cfg["controls"] = given.get("controls", {})  # the manifest records the given controls only
    gs, u0, op, dg = cfg["ground_state"], cfg["u0"], cfg["operator_check"], cfg["diagnose"]

    # the range of each setting: the constructor the run calls, whose ValueError names it first
    for section, make, kwargs in (
            ("grid", RadialGrid, cfg["grid"]), ("params", ModelParams, cfg["params"]),
            ("controls", EvolutionControls, cfg["controls"]),
            ("tolerances", Tolerances, cfg["tolerances"]),
            ("operator_check", PeriodicGrid1D, {"n": op["n"], "length": op["length"]}),
            ("diagnose", parse_checks, {"checks": dg["checks"]})):
        try:
            make(**kwargs)
        except ValueError as exc:
            name, _, reason = str(exc).partition(" ")
            bad.append(f"{section}.{name} ({reason})")
    # the settings that build no object; s is an order build_fractional takes
    rules = [("command", cfg["command"] in _COMMANDS, "must be one of " + ", ".join(_COMMANDS)),
             ("ground_state.tol", gs["tol"] > 0, "must be positive"),
             ("ground_state.max_iter", gs["max_iter"] >= 1, "must be >= 1"),
             ("ground_state.gamma", gs["gamma"] > 0, "must be positive"),
             ("ground_state.seed_profile", gs["seed_profile"] in PROFILES
              or gs["seed_profile"].startswith("file:"), f"must be in {tuple(PROFILES)} or file:<path>"),
             ("u0.kind", u0["kind"] in (*PROFILES, "file"), f"must be in {tuple(PROFILES)} or file"),
             ("u0.amplitude", abs(u0["amplitude"]) > 0, "must be nonzero"),
             ("u0.width", u0["width"] > 0, "must be positive"),
             ("u0.mass", "mass" not in u0 or u0["mass"] > 0, "must be positive"),
             ("u0.file", u0["kind"] != "file" or "file" in u0, "is required when u0.kind is file"),
             ("diagnose.trajectory", cfg["command"] != "diagnose" or "trajectory" not in dg
              or os.path.realpath(dg["trajectory"]) != os.path.realpath(cfg["out_dir"]),
              "must differ from out_dir"),  # run replaces out_dir's manifest
             ("operator_check.s", 0 < op["s"] <= 1, "must lie in (0, 1]"),
             ("operator_check.suite", op["suite"] in ("all", *SUITES), f"must be all or in {SUITES}"),
             ("seed", cfg["seed"] >= 0, "must be nonnegative")]
    bad += [f"{name} ({rule})" for name, ok, rule in rules if not ok]
    if bad:
        raise ValidationError(sorted(bad))
    return RunConfig(**{**cfg, "tolerances": Tolerances(**cfg["tolerances"])})


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)  # bank_radii stays a tuple, which JSON writes as a list


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def read_config(path) -> dict:
    """The JSON object of a config file, for config_from_dict to validate once the
    flags are merged into it; ParseError if the file holds none."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    return data


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
