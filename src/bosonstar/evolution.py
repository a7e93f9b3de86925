"""Time integration of the boson star equation with blowup-aware stepping.

Strang splitting: a half step of the free flow exp(-i dt/2 sqrt(-Delta+m^2))
in the sine basis, a full potential step exp(+i dt V_u) in physical space
(exact, since the phase rotation preserves |u|^2 and hence V_u), and another
free half step.  Every substep is an L2 isometry, so mass is conserved to
rounding; all splitting error is commutator error, O(dt^2).

The step size follows dt = min(dt0, cfl / max(||u||_{H^{1/2},hom}^2, max V_u)),
mirroring the rescaling by || |grad|^{1/2} u ||^2 that governs the blowup
scale: the phase rotation per step stays bounded as the solution focuses.
Hitting dt_floor is the operational "blowup suspected" flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst, idst

from .spectral import (
    Field,
    ModelParams,
    RadialGrid,
    boundary_mass,
    coulomb_potential_density,
    mass,
    radial_transform,
    inverse_radial_transform,
    SpectralField,
)

__all__ = [
    "EvolutionControls",
    "Snapshot",
    "Trajectory",
    "NonFinite",
    "step",
    "evolve",
    "free_evolution",
    "h_minus1_rhs_bound",
    "half_max_width",
    "HORIZON_REACHED",
    "STEP_FLOOR",
    "NORM_CAP",
    "DIVERGED",
]

HORIZON_REACHED = "HorizonReached"
STEP_FLOOR = "StepFloor"
NORM_CAP = "NormCap"
DIVERGED = "Diverged"


class NonFinite(ArithmeticError):
    """A step produced NaN/Inf values."""


@dataclass(frozen=True)
class EvolutionControls:
    dt0: float = 1e-3
    t_end: float = 1.0
    cfl: float = 0.9
    dt_floor: float = 1e-9
    snapshot_stride: int = 100
    h_half_cap: float = 1e6
    include_nonlinearity: bool = True
    max_snapshots: int = 512
    resolved_width_cells: float = 10.0

    def __post_init__(self):
        if not (self.dt0 > self.dt_floor > 0):
            raise ValueError("need dt0 > dt_floor > 0")
        if not (0 < self.cfl <= 1):
            raise ValueError("cfl must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class Snapshot:
    t: float
    field: Field
    record_index: int
    width: float
    resolved: bool
    h_half_jump: float  # relative H^{1/2} jump from the previous retained snapshot


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-accepted-step conserved-quantity records."""

    grid: RadialGrid
    params: ModelParams
    controls: EvolutionControls
    records: dict  # columns: t, dt, mass, energy, h_half, boundary_mass
    snapshots: list
    termination: str

    @property
    def initial_mass(self) -> float:
        return float(self.records["mass"][0])

    @property
    def initial_energy(self) -> float:
        return float(self.records["energy"][0])

    @property
    def final_field(self) -> Field:
        return self.snapshots[-1].field

    def resolved_snapshots(self) -> list:
        return [s for s in self.snapshots if s.resolved]


def half_max_width(f: Field) -> float:
    """Radius where |u| first drops below half of its peak (core width estimate)."""
    a = np.abs(f.values)
    peak = a.max()
    if peak == 0.0:
        return f.grid.r_max
    below = np.nonzero(a < 0.5 * peak)[0]
    ipk = int(np.argmax(a))
    below = below[below > ipk]
    if len(below) == 0:
        return f.grid.r_max
    return float(f.grid.r[below[0]])


def step(u: Field, dt: float, params: ModelParams, potential: np.ndarray | None = None) -> Field:
    """One Strang step: free half step, exact potential rotation, free half step.

    potential overrides the self-consistent V_u (test hook for forced-potential
    comparisons); the sign convention matches the attractive equation, where
    the potential term enters as -V_u, so the rotation is exp(+i dt V).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = u.grid
    k = grid.frequencies
    phase_half = np.exp(-0.5j * dt * np.sqrt(k * k + params.mass**2))
    c = radial_transform(u).coefficients * phase_half
    mid = inverse_radial_transform(SpectralField(grid, c))
    if potential is None:
        v = coulomb_potential_density(np.abs(mid.values) ** 2, grid)
    else:
        v = np.asarray(potential, dtype=np.float64)
    rotated = mid.values * np.exp(1j * dt * v)
    c = radial_transform(Field(grid, rotated)).coefficients * phase_half
    out = inverse_radial_transform(SpectralField(grid, c))
    if not np.all(np.isfinite(out.values)):
        raise NonFinite(f"non-finite values after step of size {dt}")
    return out


def _interaction_from_density_transform(rho_tilde: np.ndarray, total: float, grid: RadialGrid) -> float:
    """D(rho, rho) from the sine coefficients of r*rho (Parseval form of the Poisson solve)."""
    k = grid.frequencies[:-1]
    return float(grid.weight * 4.0 * np.pi * np.sum(rho_tilde**2 / (k * k)) + total * total / grid.r_max)


def evolve(u0: Field, params: ModelParams, controls: EvolutionControls) -> Trajectory:
    """Integrate from u0 with adaptive Strang stepping and per-step conservation records."""
    grid = u0.grid
    m0 = mass(u0)
    if m0 > 0 and boundary_mass(u0) > 1e-6 * m0:
        raise ValueError("initial datum is not resolved: boundary mass exceeds 1e-6 of total")

    k = grid.frequencies
    omega = np.sqrt(k * k + params.mass**2)
    r = grid.r
    scale = np.sqrt(grid.weight)
    interior_r = r[:-1]
    bnd_sel = r >= 0.9 * grid.r_max

    def fwd(vals):
        out = np.empty(grid.n_points, dtype=np.complex128)
        g = interior_r * vals[:-1]
        out[:-1] = scale * (dst(g.real, type=1, norm="ortho") + 1j * dst(g.imag, type=1, norm="ortho"))
        out[-1] = 0.0
        return out

    def inv(c):
        g = c[:-1] / scale
        out = np.empty(grid.n_points, dtype=np.complex128)
        out[:-1] = (idst(g.real, type=1, norm="ortho") + 1j * idst(g.imag, type=1, norm="ortho")) / interior_r
        out[-1] = 0.0
        return out

    def poisson(rho):
        # sine-basis radial Poisson solve; returns (V, rho_tilde, total mass of rho)
        total = grid.weight * float(np.sum(rho * r * r))
        rho_tilde = dst(rho[:-1] * interior_r, type=1, norm="ortho")
        h0 = np.empty(grid.n_points)
        h0[:-1] = idst(4.0 * np.pi * rho_tilde / (k[:-1] ** 2), type=1, norm="ortho")
        h0[-1] = 0.0
        return h0 / r + total / grid.r_max, rho_tilde, total

    cols = {name: [] for name in ("t", "dt", "mass", "energy", "h_half", "boundary_mass")}

    def push_record(t, dt_used, u_vals, c_vals):
        rho = np.abs(u_vals) ** 2
        m = float(np.sum(np.abs(c_vals) ** 2))
        kin = float(np.sum(omega * np.abs(c_vals) ** 2))
        if controls.include_nonlinearity:
            _, rho_tilde, total = poisson(rho)
            dd = _interaction_from_density_transform(rho_tilde, total, grid)
        else:
            dd = 0.0
        e = 0.5 * kin - 0.25 * dd
        h_half = float(np.sqrt(np.sum(np.sqrt(1.0 + k * k) * np.abs(c_vals) ** 2)))
        bm = float(grid.weight * np.sum(rho[bnd_sel] * r[bnd_sel] ** 2))
        for name, val in (("t", t), ("dt", dt_used), ("mass", m), ("energy", e),
                          ("h_half", h_half), ("boundary_mass", bm)):
            cols[name].append(val)
        return h_half

    snapshots: list[tuple[float, np.ndarray, int]] = []

    def push_snapshot(t, u_vals, rec_idx):
        snapshots.append((t, u_vals.copy(), rec_idx))
        if len(snapshots) > controls.max_snapshots:
            keep_from = (3 * len(snapshots)) // 4
            snapshots[:keep_from] = snapshots[:keep_from:2]

    u = u0.values.copy()
    c = fwd(u)
    c_init = c.copy()
    h_half = push_record(0.0, 0.0, u, c)
    push_snapshot(0.0, u, 0)

    t = 0.0
    termination = HORIZON_REACHED
    v_ctrl, _, _ = poisson(np.abs(u) ** 2) if controls.include_nonlinearity else (np.zeros_like(r), None, 0.0)
    steps_accepted = 0

    while t < controls.t_end - 1e-15 * max(1.0, controls.t_end):
        h_hom_sq = float(np.sum(k * np.abs(c) ** 2))
        rate = max(h_hom_sq, float(np.max(v_ctrl)) if controls.include_nonlinearity else 0.0, 1e-300)
        dt = min(controls.dt0, controls.cfl / rate)
        if dt < controls.dt_floor:
            termination = STEP_FLOOR
            break
        if t + 1.05 * dt >= controls.t_end:
            dt = controls.t_end - t  # absorb the float remainder into the last step

        if controls.include_nonlinearity:
            phase_half = np.exp(-0.5j * dt * omega)
            u_mid = inv(phase_half * c)
            v_ctrl, _, _ = poisson(np.abs(u_mid) ** 2)
            u_post = u_mid * np.exp(1j * dt * v_ctrl)
            c_new = phase_half * fwd(u_post)
        else:
            # free flow: splitting with V = 0 is the exact multiplier flow, so
            # exponentiate from the initial coefficients (no rounding build-up)
            c_new = np.exp(-1j * (t + dt) * omega) * c_init
        u_new = inv(c_new)

        if not np.all(np.isfinite(c_new)):
            termination = DIVERGED
            break

        t += dt
        u, c = u_new, c_new
        steps_accepted += 1
        h_half = push_record(t, dt, u, c)
        if steps_accepted % controls.snapshot_stride == 0:
            push_snapshot(t, u, len(cols["t"]) - 1)
        if h_half > controls.h_half_cap:
            termination = NORM_CAP
            break

    if not snapshots or snapshots[-1][0] < t:
        push_snapshot(t, u, len(cols["t"]) - 1)

    records = {name: np.asarray(vals) for name, vals in cols.items()}

    built = []
    prev_h = None
    dr = grid.dr
    for (ts, vals, rec_idx) in snapshots:
        f = Field(grid, vals)
        w = half_max_width(f)
        h = records["h_half"][rec_idx]
        jump = 0.0 if prev_h is None else abs(h - prev_h) / prev_h
        prev_h = h
        built.append(Snapshot(
            t=ts, field=f, record_index=rec_idx, width=w,
            resolved=bool(w >= controls.resolved_width_cells * dr),
            h_half_jump=float(jump),
        ))

    return Trajectory(grid=grid, params=params, controls=controls,
                      records=records, snapshots=built, termination=termination)


def trajectory_from_snapshots(fields, times, params: ModelParams,
                              termination: str = HORIZON_REACHED,
                              controls: EvolutionControls | None = None) -> Trajectory:
    """Package explicitly constructed fields as a Trajectory (synthetic runs,
    exact free flows); records are computed from the snapshots themselves."""
    from .spectral import energy, hs_norm

    if len(fields) != len(times) or len(fields) < 1:
        raise ValueError("need matching, nonempty fields and times")
    grid = fields[0].grid
    if controls is None:
        controls = EvolutionControls(dt0=1.0, t_end=float(times[-1]) if times[-1] > 0 else 1.0)
    cols = {name: [] for name in ("t", "dt", "mass", "energy", "h_half", "boundary_mass")}
    prev_t = 0.0
    for t, f in zip(times, fields):
        cols["t"].append(float(t))
        cols["dt"].append(float(t - prev_t))
        prev_t = t
        cols["mass"].append(mass(f))
        cols["energy"].append(energy(f, params))
        cols["h_half"].append(hs_norm(f, 0.5))
        cols["boundary_mass"].append(boundary_mass(f))
    records = {name: np.asarray(vals) for name, vals in cols.items()}
    snaps = []
    prev_h = None
    for i, (t, f) in enumerate(zip(times, fields)):
        w = half_max_width(f)
        h = records["h_half"][i]
        jump = 0.0 if prev_h is None else abs(h - prev_h) / prev_h
        prev_h = h
        snaps.append(Snapshot(t=float(t), field=f, record_index=i, width=w,
                              resolved=bool(w >= controls.resolved_width_cells * grid.dr),
                              h_half_jump=float(jump)))
    return Trajectory(grid=grid, params=params, controls=controls,
                      records=records, snapshots=snaps, termination=termination)


def free_evolution(u0: Field, params: ModelParams, t: float) -> Field:
    """Exact free flow exp(-i t sqrt(-Delta+m^2)) u0 via a single multiplier."""
    k = u0.grid.frequencies
    c = radial_transform(u0).coefficients * np.exp(-1j * t * np.sqrt(k * k + params.mass**2))
    return inverse_radial_transform(SpectralField(u0.grid, c))


def h_minus1_rhs_bound(u: Field, params: ModelParams) -> float:
    """H^{-1} norm of the equation's right-hand side sqrt(-Delta+m^2)u - V_u u.

    Uniform boundedness of this quantity along a trajectory is the discrete
    form of the a-priori bound on |d/dt u| that drives the weak-limit
    construction.
    """
    grid = u.grid
    k = grid.frequencies
    c = radial_transform(u).coefficients
    v = coulomb_potential_density(np.abs(u.values) ** 2, grid)
    nl = radial_transform(Field(grid, v * u.values)).coefficients
    rhs = np.sqrt(k * k + params.mass**2) * c - nl
    return float(np.sqrt(np.sum(np.abs(rhs) ** 2 / (1.0 + k * k))))


# --- persistence -------------------------------------------------------------

def save_trajectory(traj: Trajectory, out_dir) -> dict:
    """Write records as CSV, snapshot metadata as JSON and snapshot fields as .npy.

    `snapshots.npy` holds one complex128 row per snapshot, in the order of the
    `snapshots` list in `snapshots.json`; returns the file map.
    """
    os.makedirs(out_dir, exist_ok=True)
    rec_path = os.path.join(out_dir, "records.csv")
    cols = ("t", "dt", "mass", "energy", "h_half", "boundary_mass")
    with open(rec_path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj.records["t"])):
            fh.write(",".join(repr(float(traj.records[c][i])) for c in cols) + "\n")
    snap_path = os.path.join(out_dir, "snapshots.json")
    payload = {
        "grid": {"n_points": traj.grid.n_points, "r_max": traj.grid.r_max},
        "params": {"mass": traj.params.mass},
        "termination": traj.termination,
        "controls": {
            "dt0": traj.controls.dt0, "t_end": traj.controls.t_end,
            "cfl": traj.controls.cfl, "dt_floor": traj.controls.dt_floor,
            "snapshot_stride": traj.controls.snapshot_stride,
            "h_half_cap": traj.controls.h_half_cap,
            "include_nonlinearity": traj.controls.include_nonlinearity,
            "max_snapshots": traj.controls.max_snapshots,
            "resolved_width_cells": traj.controls.resolved_width_cells,
        },
        "snapshots": [
            {
                "t": s.t, "record_index": s.record_index, "width": s.width,
                "resolved": s.resolved, "h_half_jump": s.h_half_jump,
            }
            for s in traj.snapshots
        ],
    }
    with open(snap_path, "w") as fh:
        json.dump(payload, fh)
    fields_path = os.path.join(out_dir, "snapshots.npy")
    fields = np.array([s.field.values for s in traj.snapshots], dtype=np.complex128)
    np.save(fields_path, fields.reshape(len(traj.snapshots), traj.grid.n_points),
            allow_pickle=False)
    return {"records": rec_path, "snapshots": snap_path, "fields": fields_path}


def load_trajectory(out_dir) -> Trajectory:
    with open(os.path.join(out_dir, "snapshots.json")) as fh:
        payload = json.load(fh)
    grid = RadialGrid(payload["grid"]["n_points"], payload["grid"]["r_max"])
    params = ModelParams(payload["params"]["mass"])
    controls = EvolutionControls(**payload["controls"])
    rows = np.loadtxt(os.path.join(out_dir, "records.csv"), delimiter=",", skiprows=1, ndmin=2)
    cols = ("t", "dt", "mass", "energy", "h_half", "boundary_mass")
    records = {c: rows[:, i] for i, c in enumerate(cols)}
    fields_path = os.path.join(out_dir, "snapshots.npy")
    if not os.path.isfile(fields_path):
        raise ValueError(f"{fields_path} is missing (snapshots.json holds metadata only)")
    fields = np.load(fields_path, allow_pickle=False)
    expected = (len(payload["snapshots"]), grid.n_points)
    if fields.dtype != np.complex128 or fields.shape != expected:
        raise ValueError(f"{fields_path} holds {fields.dtype} {fields.shape}, "
                         f"expected complex128 {expected}")
    snapshots = [
        Snapshot(
            t=s["t"], field=Field(grid, values), record_index=s["record_index"],
            width=s["width"], resolved=s["resolved"], h_half_jump=s["h_half_jump"],
        )
        for s, values in zip(payload["snapshots"], fields)
    ]
    return Trajectory(grid=grid, params=params, controls=controls,
                      records=records, snapshots=snapshots, termination=payload["termination"])
