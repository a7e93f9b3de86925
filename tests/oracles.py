"""Reference oracles the tests check the package against; no command calls them.

Random and rescaled radial fields, the inhomogeneous Sobolev norm, the exact
free flow, evolve and run_checks in one process, the sharp energy lower bound,
Newton's shell formula by trapezoid sums, the resolvent-quadrature route to
(a - Delta)^s, the index-gather circulant and the hermiticity defect of a matrix.
"""

import numpy as np
from scipy.integrate import cumulative_trapezoid

from bosonstar.diagnostics import (CHECKS, CheckCannotRun, CheckRecord, NotTightOnGrid,
                                   _not_applicable, blowup_measure, cutoff_bank,
                                   exterior_convergence_check, localized_mass_series,
                                   minimal_concentration_check, parse_checks,
                                   propagation_bound_check, tightness_check, virial_check)
from bosonstar.evolution import (HORIZON_REACHED, NORM_CAP, RECORD_COLUMNS, STEP_FLOOR,
                                 EvolutionControls, SnapshotRows, Trajectory, _push_record,
                                 _trajectory, require_resolved)
from bosonstar.operator_lab import (PeriodicGrid1D, _composite_t_nodes,
                                    build_fractional, operator_norm_matrix)
from bosonstar.spectral import Field, ModelParams, RadialGrid, abs2, energy, kernel, mass


def zero_field(grid: RadialGrid) -> Field:
    return Field(grid, np.zeros(grid.n_points, dtype=np.complex128))


def random_smooth_field(grid: RadialGrid, rng: np.random.Generator,
                        n_bumps: int = 4, complex_phase: bool = True) -> Field:
    """Random superposition of well-resolved Gaussians, decaying before r_max.

    Centers stay within r_max/4 and widths within [4*dr, r_max/16] so the field
    is resolved on the grid and its boundary sample is negligible.
    """
    r = grid.r
    v = np.zeros(grid.n_points, dtype=np.complex128)
    for _ in range(n_bumps):
        a = rng.normal() + (1j * rng.normal() if complex_phase else 0.0)
        c = rng.uniform(0.0, grid.r_max / 4.0)
        w = rng.uniform(4.0 * grid.dr, grid.r_max / 16.0)
        v += a * np.exp(-((r - c) ** 2) / (2.0 * w * w))
    return Field(grid, v)


def rescale_field(f: Field, lam: float) -> Field:
    """L2-invariant dilation u_lam(r) = lam^{3/2} u(lam r), resampled on the grid."""
    r = f.grid.r
    re = np.interp(lam * r, r, f.values.real, left=f.values.real[0], right=0.0)
    im = np.interp(lam * r, r, f.values.imag, left=f.values.imag[0], right=0.0)
    return Field(f.grid, lam**1.5 * (re + 1j * im))


def hs_norm(f: Field, s: float) -> float:
    """Inhomogeneous Sobolev norm ||(1+k^2)^{s/2} u^||_2 for s in [-1, 1]."""
    kern = kernel(f.grid, ModelParams())
    c = kern.forward(f.values)
    return float(np.sqrt(np.sum((1.0 + kern.k * kern.k) ** s * np.abs(c) ** 2)))


def free_evolution(u0: Field, params: ModelParams, t: float) -> Field:
    """Exact free flow exp(-i t sqrt(-Delta+m^2)) u0 via a single multiplier."""
    kern = kernel(u0.grid, params)
    return Field(u0.grid, kern.inverse(kern.forward(u0.values) * np.exp(-1j * t * kern.omega)))


@np.errstate(over="ignore", invalid="ignore")
def reference_evolve(u0: Field, params: ModelParams, controls: EvolutionControls) -> Trajectory:
    """evolve in one process: the serial loop that takes each step's record row and snapshot
    row in line after its Strang step, and the dt rule's norm from that record."""
    grid = u0.grid
    kern = kernel(grid, params)
    require_resolved(u0, kern)
    cols = {name: [] for name in RECORD_COLUMNS}
    snap_idx = []

    def push_snapshot(u_vals):
        fields.append(u_vals)
        snap_idx.append(steps_accepted)
        if len(snap_idx) > controls.max_snapshots:
            keep_from = (3 * len(snap_idx)) // 4
            rows = [*range(0, keep_from, 2), *range(keep_from, len(snap_idx))]
            fields.keep(rows)
            snap_idx[:] = [snap_idx[i] for i in rows]

    with SnapshotRows.create(grid) as fields:
        u = u0.values
        c = kern.forward(u)
        steps_accepted = 0
        _, h_hom_sq = _push_record(cols, kern, 0.0, 0.0, u, c)
        push_snapshot(u)

        t = 0.0
        termination = HORIZON_REACHED
        v_ctrl = kern.potential(abs2(u))

        while t < controls.t_end - 1e-15 * max(1.0, controls.t_end):
            rate = max(h_hom_sq, float(np.max(v_ctrl)), 1e-300)
            dt = min(controls.dt0, controls.cfl / rate)
            if dt < controls.dt_floor:
                termination = STEP_FLOOR
                break
            if t + 1.05 * dt >= controls.t_end:
                dt = controls.t_end - t

            c, v_ctrl = kern.strang(c, dt)
            u = kern.inverse(c)
            t += dt
            steps_accepted += 1
            h_half, h_hom_sq = _push_record(cols, kern, t, dt, u, c)
            if steps_accepted % controls.snapshot_stride == 0:
                push_snapshot(u)
            if h_half > controls.h_half_cap:
                termination = NORM_CAP
                break

        if snap_idx[-1] < steps_accepted:
            push_snapshot(u)
    return _trajectory(grid, params, controls, cols, snap_idx, fields, termination)


def reference_run_checks(traj, gs, tol, checks="all") -> tuple[list[CheckRecord], dict | None]:
    """run_checks in one process: the serial loop that runs each wanted check in CHECKS
    order and returns (records, histogram) as run_checks does."""
    wanted = parse_checks(checks)
    grid = traj.grid
    m0 = traj.initial_mass
    nan = float("nan")
    records = []
    histogram = None
    radii = [r for r in tol.bank_radii if r < grid.boundary_radius]

    def banked():
        if not radii:
            raise CheckCannotRun(f"no bank_radii entry lies below 0.9 r_max = {grid.boundary_radius:g}")
        return cutoff_bank(grid, radii)  # built per check, so no other check holds it

    def tightness():
        try:
            r_star = tightness_check(traj, 0.01 * m0)
        except NotTightOnGrid:
            r_star = float("inf")
        return [CheckRecord("tightness", {"eps_fraction": 0.01}, r_star, grid.r_max, relation="<")]

    def measure():
        nonlocal histogram
        histogram, cauchy = blowup_measure(
            traj, tol.histogram_bins, cutoffs=banked(), c_cal=tol.c_cal_propagation,
            pad=tol.cauchy_pad)
        return cauchy

    def exterior():
        if not traj.blowup_suspected:
            return _not_applicable("exterior_cauchy", traj, nan, "<=")
        return exterior_convergence_check(traj, tol.exterior_radius, traj.params,
                                          final_frac=tol.exterior_final_frac)

    def propagation():
        bank = banked()
        _, masses = localized_mass_series(traj, bank)
        return [propagation_bound_check(traj, chi, tol.c_cal_propagation, ms)
                for chi, ms in zip(bank, masses)]

    def newton():
        kern = kernel(grid, traj.params)
        worst = max(float(np.max(kern.r * kern.potential(abs2(s.field.values))))
                    for s in traj.snapshots)
        return [CheckRecord("newton_bound", {}, worst, m0 * (1.0 + tol.newton_slack))]

    runners = {"tightness": tightness, "measure": measure, "exterior": exterior, "newton": newton,
               "concentration": lambda: minimal_concentration_check(
                   traj, gs, tol.conc_mass_fraction, center_cells=tol.conc_center_cells),
               "propagation": propagation,
               "virial": lambda: [virial_check(traj, traj.params, tol.virial_envelope_slack,
                                               tol.virial_residual)]}
    for name, record_name in CHECKS.items():
        if name in wanted:
            try:
                records.extend(runners[name]())
            except CheckCannotRun as exc:
                records.append(CheckRecord(record_name, {"error": str(exc)}, nan, nan))
    return records, histogram


def trajectory_bytes(traj: Trajectory) -> tuple:
    """A run's termination, the bytes of each record column, its snapshot indices and the
    bytes of each snapshot row: equal tuples are byte-identical runs, signed zeros too."""
    return (traj.termination, [traj.records[name].tobytes() for name in RECORD_COLUMNS],
            [s.record_index for s in traj.snapshots],
            [traj.fields[i].tobytes() for i in range(len(traj.fields))])


def energy_threshold_check(f: Field, gs, params: ModelParams) -> dict:
    """Slack of the sharp energy lower bound E[f] >= (1/2)(1 - M[f]/M_c) ||grad^{1/2}f||^2."""
    m = mass(f)
    kin = kernel(f.grid, params).homogeneous_half_sq(f.values)
    e = energy(f, params)
    bound = 0.5 * (1.0 - m / gs.critical_mass) * kin
    return {"energy": e, "mass": m, "bound": bound, "slack": e - bound}


def newton_shell_potential(rho: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Newton's shell formula V(r) = 4*pi [ (1/r) int_0^r rho s^2 ds + int_r^rmax rho s ds ]
    by cumulative trapezoid sums, O(dr^2), with r*V <= mass exactly.  The first interval
    [0, dr] uses that rho*s^2 vanishes at s = 0, so no 1/r singularity is evaluated."""
    rho = np.asarray(rho, dtype=np.float64)
    r = grid.r
    inner = cumulative_trapezoid(rho * r * r, r, initial=0.0)
    inner += 0.5 * grid.dr * rho[0] * r[0] ** 2  # [0, r_1] segment, integrand 0 at s=0
    outer_cum = cumulative_trapezoid(rho * r, r, initial=0.0)
    outer = outer_cum[-1] - outer_cum
    return 4.0 * np.pi * (inner / r + outer)


def scalar_power_quadrature(x, s: float, n_nodes: int = 48, t_hi: float | None = None):
    """x^s via (sin pi s/pi) Int_0^inf x/(x+t) t^{s-1} dt, numerically.

    The nodes are those of `_composite_t_nodes` with decay 1 (the integrand
    falls off like 1/t).  Vectorized in x; the independent route to the power
    function used to cross-check the diagonal operator construction.
    """
    x = np.asarray(x, dtype=np.float64)
    if t_hi is None:
        t_hi = max(4.0, 4.0 * float(np.max(x)))
    t, w = _composite_t_nodes(s - 1.0, 1.0, t_hi, n_nodes)
    return (np.sin(np.pi * s) / np.pi) * np.sum(w * (x[..., None] / (x[..., None] + t)), axis=-1)


def fractional_via_quadrature(grid: PeriodicGrid1D, s: float, a: float = 1.0,
                              n_nodes: int = 48) -> np.ndarray:
    """(a-Delta)^s as V diag(q(lam)) V^T, with A = a - Delta = V diag(lam) V^T
    from `eigh` and q the resolvent quadrature of `scalar_power_quadrature`
    (t_hi = 4 max(1, lam_max)); the symbol (a + k^2)^s is never evaluated."""
    lam, V = np.linalg.eigh(build_fractional(grid, 1.0, a))
    m = V @ (scalar_power_quadrature(lam, s, n_nodes)[:, None] * V.T)
    return 0.5 * (m + m.T)


def gather_circulant(grid: PeriodicGrid1D, symbol: np.ndarray) -> np.ndarray:
    """The circulant of a real, even symbol through an n x n index array,
    m[i, j] = col[(i - j) % n], then symmetrised as 0.5 (m + m^T)."""
    col = np.fft.ifft(symbol).real
    m = col[(np.arange(grid.n)[:, None] - np.arange(grid.n)) % grid.n]
    return 0.5 * (m + m.T)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m^T| relative to the operator norm of the matrix m."""
    scale = max(operator_norm_matrix(m), 1e-300)
    return float(np.max(np.abs(m - m.T)) / scale)
