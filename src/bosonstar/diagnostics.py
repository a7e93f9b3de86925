"""Quantitative checks on stored trajectories.

Turns the structural facts about radial blowup into grid-measurable
statements: the localized-mass propagation bound (commutator estimate), the
tightness radius, Levy concentration functions and the minimal-mass ball at
the blowup point, radial histograms of |u|^2 with their Cauchy-in-time
oscillation, strong exterior convergence with its Duhamel ingredients, and
the quadratic virial envelope.  `run_checks` runs them as the `diagnose`
suite.

Limits t -> T^- are replaced by windows over the last TAIL snapshots, resolved
ones where a check says so; "resolved" excludes records whose concentration
width has fallen below the grid scale (see
EvolutionControls.resolved_width_cells).  Every check computes the density
|u|^2 of each snapshot row it reads (Trajectory.density) once, and keeps no
all-rows density.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .evolution import STEP_FLOOR
from .spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    kernel,
)

__all__ = [
    "Cutoff",
    "CheckRecord",
    "CheckCannotRun",
    "InsufficientSnapshots",
    "NotTightOnGrid",
    "smooth_bump",
    "smooth_exterior",
    "cutoff_bank",
    "localized_mass",
    "localized_mass_series",
    "propagation_bound_check",
    "dilation_decay_check",
    "tightness_check",
    "ball_mass",
    "concentration_function",
    "minimal_concentration_check",
    "blowup_measure",
    "exterior_convergence_check",
    "virial_check",
    "CHECKS",
    "parse_checks",
    "run_checks",
]


TAIL = 5  # the last snapshots that stand for t -> T^-
_COARSE_CENTERS = 128  # the coarse scan of concentration_function


class CheckCannotRun(ValueError):
    """A check lacks the input it needs; `run_checks` reports it as one failed record."""


class InsufficientSnapshots(CheckCannotRun):
    pass


class NotTightOnGrid(ValueError):
    pass


@dataclass(frozen=True)
class Cutoff:
    """Radial cutoff 0 <= chi <= 1 with its exact gradient sup-norm."""

    kind: str
    samples: np.ndarray
    grad_inf: float
    radius: float | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.min() < -1e-12 or s.max() > 1.0 + 1e-12:
            raise ValueError("cutoff must take values in [0, 1]")
        object.__setattr__(self, "samples", s)


def smooth_bump(grid: RadialGrid, radius: float) -> Cutoff:
    """tanh step of width w = radius/4: 1 well inside radius, 0 well outside;
    |chi'| max = 1/(2*w)."""
    w = radius / 4.0
    chi = 0.5 * (1.0 - np.tanh((grid.r - radius) / w))
    return Cutoff(kind="smooth_bump", samples=chi, grad_inf=1.0 / (2.0 * w), radius=radius)


def smooth_exterior(grid: RadialGrid, radius: float) -> Cutoff:
    """Complement of smooth_bump: 0 inside, 1 outside."""
    w = radius / 4.0
    chi = 0.5 * (1.0 + np.tanh((grid.r - radius) / w))
    return Cutoff(kind="smooth_exterior", samples=chi, grad_inf=1.0 / (2.0 * w), radius=radius)


def cutoff_bank(grid: RadialGrid, radii) -> list[Cutoff]:
    """The fixed bank: one bump and one exterior per radius, shared across runs."""
    bank = []
    for rr in radii:
        bank.append(smooth_bump(grid, rr))
        bank.append(smooth_exterior(grid, rr))
    return bank


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class CheckRecord:
    """A check's verdict: `passed` is `statistic <relation> bound` (so a NaN fails) unless a
    compound or not-applicable record gives it; line() prints the relation, to_dict() omits it."""

    check: str
    params: dict
    statistic: float
    bound: float
    passed: bool | None = None
    relation: str = "<="

    def __post_init__(self):
        if self.passed is None:
            verdict = _RELATIONS[self.relation](self.statistic, self.bound)
            object.__setattr__(self, "passed", bool(verdict))

    def line(self) -> str:
        """The stdout line: verdict, then the statistic and the bound with its direction,
        or the error of a check that could not run."""
        detail = self.params.get("error") or (
            f"statistic={self.statistic:.6g} {self.relation} bound={self.bound:.6g}")
        return f"  [{'PASS' if self.passed else 'FAIL'}] {self.check}: {detail}"

    def to_dict(self) -> dict:
        def clean(x):
            return float(x) if np.isfinite(x) else None

        return {"check": self.check, "params": self.params,
                "statistic": clean(self.statistic), "bound": clean(self.bound),
                "pass": self.passed}


# --- localized mass and propagation ------------------------------------------

def localized_mass(rho: np.ndarray, kern: RadialKernel, chi: Cutoff) -> float:
    """Mass of the density rho = |u|^2 weighted by chi."""
    return float(kern.grid.weight * np.sum(chi.samples * rho * kern.r_squared))


def localized_mass_series(traj, cutoffs, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Times of the snapshots from `first` on, and M_chi at each of them, one row per cutoff;
    each snapshot's density is computed once for all the cutoffs."""
    kern = kernel(traj.grid, traj.params)
    densities = map(traj.density, range(first, len(traj.snapshots)))
    ms = np.array([[localized_mass(rho, kern, chi) for chi in cutoffs] for rho in densities])
    return np.array([s.t for s in traj.snapshots[first:]]), ms.T


def _max_rate(ts: np.ndarray, ms: np.ndarray) -> float:
    dt = np.diff(ts)
    keep = dt > 0
    return float(np.max(np.abs(np.diff(ms)[keep] / dt[keep])))


def propagation_bound_check(traj, chi: Cutoff, c_cal: float,
                            masses: np.ndarray | None = None) -> CheckRecord:
    """Finite-difference |dM_chi/dt| against the calibrated commutator constant.

    `masses` is M_chi at every snapshot when the caller has it (`run_checks` takes the
    whole bank's in one pass over the densities); otherwise it is computed here.
    """
    if len(traj.snapshots) < 3:
        raise InsufficientSnapshots("need at least 3 snapshots for a rate estimate")
    if masses is None:
        _, (masses,) = localized_mass_series(traj, [chi])
    c_hat = _max_rate(np.array([s.t for s in traj.snapshots]), masses) / chi.grad_inf
    return CheckRecord(
        check="propagation_bound",
        params={"kind": chi.kind, "radius": chi.radius, "grad_inf": chi.grad_inf},
        statistic=c_hat, bound=c_cal)


def dilation_decay_check(traj, radii, factor: float) -> CheckRecord:
    """Max flux through shape-dilated bumps chi_R must decay like 1/R.

    Checks that R * max|dM_{chi_R}/dt| stays within `factor` of its geometric
    mean across the dilation family.
    """
    if len(traj.snapshots) < 3:
        raise InsufficientSnapshots("need at least 3 snapshots for a rate estimate")
    ts, masses = localized_mass_series(traj, [smooth_bump(traj.grid, rr) for rr in radii])
    q = np.array([rr * _max_rate(ts, ms) for rr, ms in zip(radii, masses)])
    gmean = float(np.exp(np.mean(np.log(q))))
    spread = float(max(q.max() / gmean, gmean / q.min()))
    return CheckRecord(
        check="dilation_decay",
        params={"radii": list(radii), "scaled_rates": [float(x) for x in q]},
        statistic=spread, bound=factor)


# --- tightness and concentration ---------------------------------------------

def tightness_check(traj, eps: float) -> float:
    """Smallest grid radius R with sup over snapshots of the exterior mass <= eps."""
    g = traj.grid
    r2w = g.weight * g.r**2
    sup_ext = None
    for i in range(len(traj.snapshots)):
        ext = np.cumsum((traj.density(i) * r2w)[::-1])[::-1]  # mass in r >= r_j
        sup_ext = ext if sup_ext is None else np.maximum(sup_ext, ext)
    if sup_ext is None:
        raise InsufficientSnapshots("no snapshots")
    idx = np.nonzero(sup_ext <= eps)[0]
    if len(idx) == 0:
        raise NotTightOnGrid(f"no grid radius confines mass to eps={eps}")
    return float(g.r[idx[0]])


def ball_mass(rho: np.ndarray, kern: RadialKernel, center: float, radius: float) -> float:
    """Mass of the density rho in the radius ball centered at distance `center` from the origin
    (on the symmetry axis; radial symmetry makes this general), summed over the shells it meets."""
    r = kern.r
    # shells r <= radius - center lie inside the ball, and shells with
    # |r - center| < radius meet it in the cap where cos(theta) >= cstar;
    # at center 0 no shell is cut and the cap range is empty
    lo = np.searchsorted(r, abs(radius - center), side="right")
    hi = np.searchsorted(r, center + radius)
    full = 2.0 * np.sum(rho[:lo] * r[:lo] ** 2) if radius > center else 0.0
    rs = r[lo:hi]
    cstar = (rs**2 + center**2 - radius**2) / (2.0 * rs * center)
    mu = 1.0 - np.clip(cstar, -1.0, 1.0)  # in [0, 2]
    return float(2.0 * np.pi * kern.grid.dr * (full + np.sum(rho[lo:hi] * rs**2 * mu)))


def concentration_function(rho: np.ndarray, kern: RadialKernel, R: float) -> tuple[float, float]:
    """Levy concentration of the density rho: maximize the mass of the R-ball over axis centers.

    Coarse scan of _COARSE_CENTERS centers over [0, r_max], then a refinement pass
    at grid resolution around the best coarse center; ties break toward the origin.
    """
    grid = kern.grid
    if R >= grid.r_max:
        return 0.0, float(grid.weight * np.sum(rho * kern.r_squared))
    centers = np.linspace(0.0, grid.r_max, _COARSE_CENTERS)
    vals = np.array([ball_mass(rho, kern, d, R) for d in centers])
    i = int(np.argmax(vals))
    step = centers[1] - centers[0]
    lo = max(0.0, centers[i] - step)
    hi = min(grid.r_max, centers[i] + step)
    fine = np.arange(lo, hi + grid.dr / 2, grid.dr)
    fvals = np.array([ball_mass(rho, kern, d, R) for d in fine])
    j = int(np.argmax(fvals))
    return float(fine[j]), float(fvals[j])


def _last_resolved(traj) -> list:
    """(snapshot, density) of the last TAIL resolved snapshots."""
    res = [i for i, s in enumerate(traj.snapshots) if s.resolved]
    if len(res) < TAIL:
        raise InsufficientSnapshots(f"need {TAIL} resolved snapshots, have {len(res)}")
    return [(traj.snapshots[i], traj.density(i)) for i in res[-TAIL:]]


def minimal_concentration_check(traj, gs, mass_fraction: float,
                                center_cells: float) -> list[CheckRecord]:
    """Mass in the shrinking ball of radius lambda(t) = ||u||_{H^{1/2},hom}^{-1}.

    Only applicable to runs flagged as blowup (StepFloor); the liminf is
    replaced by the min over the last TAIL resolved snapshots.
    """
    if traj.termination != STEP_FLOOR:
        return [CheckRecord(check="minimal_concentration",
                            params={"applicable": False, "termination": traj.termination},
                            statistic=float("nan"), bound=mass_fraction, passed=True,
                            relation=">=")]
    kern = kernel(traj.grid, traj.params)
    fractions = []
    centers = []
    trace = []
    for s, rho in _last_resolved(traj):
        lam = 1.0 / np.sqrt(kern.homogeneous_half_sq(s.field.values))
        ball = ball_mass(rho, kern, 0.0, lam)
        y, best = concentration_function(rho, kern, lam)
        fractions.append(ball / gs.critical_mass)
        centers.append(y)
        trace.append({"t": s.t, "lambda": lam, "origin_ball_mass": ball,
                      "best_center": y, "best_value": best})
    params = {"applicable": True, "lambda_rule": "inverse_hom_half_norm", "trace": trace}
    return [CheckRecord("minimal_concentration", params, float(np.min(fractions)), mass_fraction,
                        relation=">="),
            CheckRecord("concentration_center", {"centers": [float(c) for c in centers]},
                        float(np.max(np.abs(centers))), center_cells * traj.grid.dr)]


# --- blowup measure -----------------------------------------------------------

def blowup_measure(traj, bins: int, cutoffs: list[Cutoff] | None = None,
                   c_cal: float | None = None, pad: float = 1e-6) -> tuple[dict, list[CheckRecord]]:
    """Radial mass histograms over time plus the Cauchy oscillation report.

    The histogram sequence is the grid approximant of the limiting measure of
    |u(t)|^2; for each bank cutoff the oscillation of M_chi over the last TAIL
    snapshots must be controlled by the propagation constant times the
    window length, plus the additive pad (Tolerances.cauchy_pad).  Raises
    InsufficientSnapshots when cutoffs are given and the run has fewer than 2
    snapshots.
    """
    g = traj.grid
    edges = np.linspace(0.0, g.r_max, bins + 1)
    shell = g.weight * g.r**2
    bin_idx = np.minimum((g.r / (g.r_max / bins)).astype(int), bins - 1)
    hists = [np.bincount(bin_idx, weights=traj.density(i) * shell, minlength=bins)
             for i in range(len(traj.snapshots))]
    histogram = {
        "bin_edges": [float(e) for e in edges],
        "times": [float(s.t) for s in traj.snapshots],
        "masses": [[float(x) for x in h] for h in hists],
    }
    records = []
    if cutoffs and c_cal is not None:
        tail = traj.snapshots[-TAIL:]
        if len(tail) < 2:
            raise InsufficientSnapshots("need at least 2 snapshots for a Cauchy window")
        span = tail[-1].t - tail[0].t
        _, masses = localized_mass_series(traj, cutoffs, len(traj.snapshots) - len(tail))
        for chi, ms in zip(cutoffs, masses):
            records.append(CheckRecord(
                "measure_cauchy", {"kind": chi.kind, "radius": chi.radius, "window": span},
                float(np.max(ms) - np.min(ms)), c_cal * chi.grad_inf * span + pad))
    return histogram, records


# --- exterior convergence ------------------------------------------------------

def _exterior_l2(u: Field, v: Field, R: float) -> float:
    g = u.grid
    sel = g.r >= R
    d = u.values[sel] - v.values[sel]
    return float(np.sqrt(g.weight * np.sum(np.abs(d) ** 2 * g.r[sel] ** 2)))


def _zeta_exterior(grid: RadialGrid, R: float) -> np.ndarray:
    """Smooth radial cutoff vanishing for r <= R, equal to 1 for r >= 2R."""
    x = np.clip((grid.r - R) / R, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)  # C^1 smoothstep on [R, 2R]


def exterior_convergence_check(traj, R: float, params: ModelParams,
                               final_frac: float) -> list[CheckRecord]:
    """Cauchy property of u(t) in L2(r >= R) plus the Duhamel-term bounds.

    Reports: consecutive exterior distances over the last TAIL resolved
    snapshots (must decrease, final below final_frac * sqrt(mass)); the
    commutator source F_R = [zeta_R, sqrt(-Delta+m^2)] u; and the potential
    term against its Newton bounds sup V_u zeta_{R/2} <= 2 mass / R and
    ||V_u u_R||_2 <= 2 mass^2 / R.
    """
    window = _last_resolved(traj)
    g = traj.grid
    m0 = traj.initial_mass
    dists = [_exterior_l2(b.field, a.field, R) for (a, _), (b, _) in zip(window, window[1:])]
    decreasing = bool(np.all(np.diff(dists) <= 1e-14))
    final_ok = bool(dists[-1] <= final_frac * np.sqrt(m0))
    rec_cauchy = CheckRecord(
        check="exterior_cauchy",
        params={"R": R, "distances": [float(d) for d in dists]},
        statistic=float(dists[-1]), bound=final_frac * float(np.sqrt(m0)),
        passed=decreasing and final_ok)

    zeta = _zeta_exterior(g, R)
    zeta_half = _zeta_exterior(g, R / 2.0)
    kern = kernel(g, params)
    sup_vzeta = 0.0
    sup_vur = 0.0
    sup_fr = 0.0
    for s, rho in window:
        v = kern.potential(rho)
        sup_vzeta = max(sup_vzeta, float(np.max(v * zeta_half)))
        ur = zeta * s.field.values
        vur = float(np.sqrt(g.weight * np.sum((v * np.abs(ur)) ** 2 * g.r**2)))
        sup_vur = max(sup_vur, vur)
        fr = zeta * kern.inverse(kern.omega * kern.forward(s.field.values))
        fr -= kern.inverse(kern.omega * kern.forward(ur))
        sup_fr = max(sup_fr, float(np.sqrt(g.weight * np.sum(np.abs(fr) ** 2 * g.r**2))))
    return [rec_cauchy, CheckRecord("newton_potential_sup", {"R": R}, sup_vzeta, 2.0 * m0 / R),
            CheckRecord("duhamel_potential_term", {"R": R, "commutator_source_l2": sup_fr},
                        sup_vur, 2.0 * m0**2 / R)]


# --- virial -------------------------------------------------------------------

def virial_check(traj, params: ModelParams, envelope_slack: float,
                 residual_tol: float) -> CheckRecord:
    """Quadratic envelope W(t) <= 2 E[u0] t^2 + C1 t + C2 on a blowup run, for the
    weighted norm W = sum_j <u, x_j sqrt(-Delta+m^2) x_j u> (RadialKernel.virial_weight).

    Fits W over the resolved snapshots; the leading coefficient must not
    exceed 2 E[u0] by more than envelope_slack * |2 E[u0]|, and the quadratic
    fit must capture W to residual_tol (relative RMS).
    """
    res = traj.resolved_snapshots()
    if len(res) < 4:
        raise InsufficientSnapshots("need at least 4 resolved snapshots for a quadratic fit")
    ts = np.array([s.t for s in res])
    kern = kernel(traj.grid, params)
    ws = np.array([kern.virial_weight(s.field.values) for s in res])
    coeffs = np.polyfit(ts, ws, 2)
    fit = np.polyval(coeffs, ts)
    residual = float(np.sqrt(np.mean((fit - ws) ** 2)) / np.sqrt(np.mean(ws**2)))
    e0 = traj.initial_energy
    bound = 2.0 * e0 + envelope_slack * abs(2.0 * e0)
    passed = bool(coeffs[0] <= bound and residual <= residual_tol)
    return CheckRecord(
        check="virial_envelope",
        params={"leading_coefficient": float(coeffs[0]), "energy": e0,
                "fit_residual": residual, "n_snapshots": len(res)},
        statistic=float(coeffs[0]), bound=float(bound), passed=passed)


# --- the diagnose suite ----------------------------------------------------------

# each check of `run_checks`, in report order, with the record it reports a
# CheckCannotRun error under
CHECKS = {"propagation": "propagation_bound", "tightness": "tightness",
          "concentration": "minimal_concentration", "measure": "measure_cauchy",
          "exterior": "exterior_cauchy", "newton": "newton_bound", "virial": "virial_envelope"}


def parse_checks(checks="all") -> set:
    """The CHECKS named by "all", a comma-separated string or a list; ValueError for others."""
    names = set(CHECKS if checks == "all" else checks.split(",") if isinstance(checks, str) else checks)
    if names - set(CHECKS):
        raise ValueError(f"checks has unknown names {', '.join(sorted(names - set(CHECKS)))}")
    return names


def run_checks(traj, gs, tol, checks="all") -> tuple[list[CheckRecord], dict | None]:
    """Run the named CHECKS (see parse_checks) on a stored trajectory against
    the ground state gs, with config.Tolerances tol.  Returns the records and
    the radial histogram of `measure` (None when measure did not run).

    A check that lacks the snapshots or the cutoff bank it needs reports one
    failed record that carries the error.  Exterior convergence is a statement
    about blowup solutions: on a run that did not stop at StepFloor it reports
    one passed, not-applicable record.
    """
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
        if traj.termination != STEP_FLOOR:
            return [CheckRecord("exterior_cauchy",
                                {"applicable": False, "termination": traj.termination},
                                nan, nan, passed=True)]
        return exterior_convergence_check(traj, tol.exterior_radius, traj.params,
                                          final_frac=tol.exterior_final_frac)

    def propagation():
        bank = banked()
        _, masses = localized_mass_series(traj, bank)
        return [propagation_bound_check(traj, chi, tol.c_cal_propagation, ms)
                for chi, ms in zip(bank, masses)]

    def newton():
        kern = kernel(grid, traj.params)
        worst = max(float(np.max(kern.r * kern.potential(traj.density(i))))
                    for i in range(len(traj.snapshots)))
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
