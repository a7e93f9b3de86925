"""Acceptance suite: every graduation criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live); the
tolerances come from the shipped config defaults, nothing is recalibrated
here.  The heavy runs are session fixtures shared with the unit tests.
"""

import time

import numpy as np

from bosonstar.config import Tolerances
from bosonstar.diagnostics import (
    cutoff_bank,
    dilation_decay_check,
    exterior_convergence_check,
    minimal_concentration_check,
    propagation_bound_check,
    virial_check,
)
from bosonstar.evolution import (
    HORIZON_REACHED,
    STEP_FLOOR,
    EvolutionControls,
    evolve,
)
from bosonstar.ground_state import gn_ratio, solve_ground_state
from bosonstar.operator_lab import (
    PeriodicGrid1D,
    SequenceFamily,
    band_projector,
    build_fractional,
    commutator_norm,
    ims_defect,
    l2_norm,
    localization_defect,
    operator_norm_matrix,
    partition_pair,
    profile_decompose,
    random_smooth_chi,
    spectral_gradient,
    subcritical_check,
    tanh_bump,
)
from bosonstar.spectral import (
    ModelParams,
    RadialGrid,
    coulomb_potential_density,
)

from conftest import ACCEPTANCE_GRID, make_subcritical_u0
from oracles import hermiticity_defect, random_smooth_field, scalar_power_quadrature

TOL = Tolerances()


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_ground_state_suite(acceptance_gs):
    t0 = time.time()
    sech = solve_ground_state(ACCEPTANCE_GRID, tol=1e-10, seed="sech")
    double = solve_ground_state(RadialGrid(2 * ACCEPTANCE_GRID.n_points,
                                           ACCEPTANCE_GRID.r_max), tol=1e-10)
    elapsed = time.time() - t0
    gs = acceptance_gs
    residual_ok = gs.equation_residual < TOL.equation_residual_tol
    pohozaev_ok = gs.pohozaev_residual < TOL.pohozaev_tol
    seed_ok = abs(sech.critical_mass - gs.critical_mass) \
        < TOL.mc_seed_agreement * gs.critical_mass
    grid_ok = abs(double.critical_mass - gs.critical_mass) \
        < TOL.mc_grid_stability * gs.critical_mass
    time_ok = elapsed < 60.0
    report(1, residual_ok and pohozaev_ok and seed_ok and grid_ok and time_ok,
           f"ground state on (4096, 128): residual={gs.equation_residual:.2e} (<1e-8), "
           f"pohozaev={gs.pohozaev_residual:.2e} (<1e-6), "
           f"seed agreement={abs(sech.critical_mass - gs.critical_mass) / gs.critical_mass:.2e} "
           f"(<1e-6), grid stability="
           f"{abs(double.critical_mass - gs.critical_mass) / gs.critical_mass:.2e} (<1e-4), "
           f"M_c={gs.critical_mass:.8f}, {elapsed:.1f}s (<60s)")


def test_criterion_2_gn_inequality(acceptance_gs):
    t0 = time.time()
    gs = acceptance_gs
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        f = random_smooth_field(ACCEPTANCE_GRID, rng)
        worst = max(worst, gn_ratio(f))
    inequality_ok = worst <= gs.c_opt * (1 + TOL.gn_slack)
    at_q = abs(gn_ratio(gs.q) - gs.c_opt) / gs.c_opt
    optimum_ok = at_q < 1e-6
    elapsed = time.time() - t0
    report(2, inequality_ok and optimum_ok and elapsed < 30.0,
           f"interpolation inequality: max ratio/c_opt={worst / gs.c_opt:.8f} (<=1+1e-6), "
           f"|gn(Q)-c_opt|/c_opt={at_q:.2e} (<1e-6), {elapsed:.1f}s (<30s)")


def test_criterion_3_conservation_suite(acceptance_gs, subcritical_traj):
    rec = subcritical_traj.records
    mass_drift = float(np.max(np.abs(rec["mass"] - rec["mass"][0])) / rec["mass"][0])
    e = rec["energy"]
    drift_full = abs(e[-1] - e[0]) / abs(e[0])
    t0 = time.time()
    half = evolve(make_subcritical_u0(acceptance_gs), ModelParams(1.0),
                  EvolutionControls(dt0=5e-4, t_end=10.0, cfl=1.0, dt_floor=1e-10,
                                    snapshot_stride=40))
    elapsed = time.time() - t0 + getattr(subcritical_traj, "build_seconds", 0.0)
    eh = half.records["energy"]
    drift_half = abs(eh[-1] - eh[0]) / abs(eh[0])
    ratio = drift_full / drift_half
    mass_ok = mass_drift < TOL.mass_drift
    energy_ok = drift_full < TOL.energy_drift
    strang_ok = TOL.strang_ratio_lo <= ratio <= TOL.strang_ratio_hi
    report(3, mass_ok and energy_ok and strang_ok and elapsed < 120.0,
           f"conservation on the subcritical run: mass drift={mass_drift:.2e} (<1e-9), "
           f"energy drift={drift_full:.2e} (<1e-6 at dt=1e-3), "
           f"dt-halving ratio={ratio:.2f} (in [3,5]), {elapsed:.0f}s (<120s)")


def test_criterion_4_global_existence_below_threshold(subcritical_traj):
    h = subcritical_traj.records["h_half"]
    growth = float(np.max(h) / h[0])
    ok = subcritical_traj.termination == HORIZON_REACHED \
        and growth < TOL.subcritical_growth_cap
    report(4, ok,
           f"mass 0.5 M_c run: termination={subcritical_traj.termination} "
           f"(HorizonReached), sup growth={growth:.4f} (<5)")


def test_criterion_5_blowup_detection(blowup_traj):
    h = blowup_traj.records["h_half"]
    growth = float(h[-1] / h[0])
    tail = h[-(TOL.monotone_tail_steps + 1):]
    monotone = bool(np.all(np.diff(tail) > 0))
    elapsed = getattr(blowup_traj, "build_seconds", 0.0)
    ok = blowup_traj.termination == STEP_FLOOR \
        and growth >= TOL.blowup_growth_min and monotone and elapsed < 600.0
    report(5, ok,
           f"negative-energy mass 1.2 M_c run: termination={blowup_traj.termination} "
           f"(StepFloor), growth={growth:.2f}x (>=10x), "
           f"monotone last {TOL.monotone_tail_steps} steps={monotone}, "
           f"E[u0]={blowup_traj.initial_energy:.4f} (<0), {elapsed:.1f}s (<600s)")


def test_criterion_6_finite_speed_of_propagation(subcritical_traj, blowup_traj,
                                                 dilation_traj):
    worst = 0.0
    for traj in (subcritical_traj, blowup_traj):
        for chi in cutoff_bank(traj.grid, TOL.bank_radii):
            rec = propagation_bound_check(traj, chi, TOL.c_cal_propagation)
            worst = max(worst, rec.statistic)
            assert rec.passed, (chi.kind, chi.radius, rec.statistic)
    rec = dilation_decay_check(dilation_traj, TOL.bank_radii, TOL.dilation_factor)
    ok = worst <= TOL.c_cal_propagation and rec.passed
    report(6, ok,
           f"localized-mass rates: max |dM/dt|/|grad chi| = {worst:.4f} "
           f"(<= C_cal={TOL.c_cal_propagation}) over both runs x 8 cutoffs; "
           f"dilation spread={rec.statistic:.2f} (<= {TOL.dilation_factor}) "
           f"across R={list(TOL.bank_radii)}")


def test_criterion_7_minimal_mass_concentration(blowup_traj, acceptance_gs):
    recs = minimal_concentration_check(blowup_traj, acceptance_gs,
                                       TOL.conc_mass_fraction,
                                       center_cells=TOL.conc_center_cells)
    by_name = {r.check: r for r in recs}
    conc = by_name["minimal_concentration"]
    cent = by_name["concentration_center"]
    ok = conc.passed and cent.passed
    report(7, ok,
           f"blowup concentration: min ball mass/{'M_c'}={conc.statistic:.3f} (>=0.9), "
           f"max |center|={cent.statistic:.5f} (<= 3 dr = {cent.bound:.5f})")


def test_criterion_8_exterior_convergence(blowup_traj):
    recs = exterior_convergence_check(blowup_traj, TOL.exterior_radius,
                                      blowup_traj.params,
                                      final_frac=TOL.exterior_final_frac)
    by_name = {r.check: r for r in recs}
    cauchy = by_name["exterior_cauchy"]
    dists = cauchy.params["distances"]
    newton_worst = 0.0
    g = blowup_traj.grid
    for s in blowup_traj.snapshots:
        v = coulomb_potential_density(np.abs(s.field.values) ** 2, g)
        newton_worst = max(newton_worst, float(np.max(g.r * v)))
    newton_ok = newton_worst <= blowup_traj.initial_mass * (1 + TOL.newton_slack)
    ok = cauchy.passed and newton_ok
    report(8, ok,
           f"exterior L2(r>=5): distances decreasing={bool(np.all(np.diff(dists) <= 0))}, "
           f"final={cauchy.statistic:.2e} (< {cauchy.bound:.2e}); "
           f"Newton bound max rV={newton_worst:.6f} <= mass="
           f"{blowup_traj.initial_mass:.6f} at every snapshot")


def test_criterion_9_virial_envelope(blowup_traj):
    rec = virial_check(blowup_traj, blowup_traj.params,
                       TOL.virial_envelope_slack, TOL.virial_residual)
    e0 = blowup_traj.initial_energy
    report(9, rec.passed,
           f"virial envelope: leading coefficient={rec.statistic:.4f} "
           f"<= 2E + 0.1|2E| = {rec.bound:.4f} (E[u0]={e0:.4f}), "
           f"fit residual={rec.params['fit_residual']:.4f} (<0.05)")


def test_criterion_10_operator_lab_suite():
    t0 = time.time()
    failures = []

    # scalar integral identity
    for s in (0.25, 0.5, 0.75):
        if abs(scalar_power_quadrature(np.array([1.0]), s)[0] - 1.0) >= 1e-8:
            failures.append(f"scalar identity s={s}")

    grid = PeriodicGrid1D(128, 32.0)
    rng = np.random.default_rng(99)

    # commutator bounds with one calibrated constant, and 1/R dilation decay
    for _ in range(20):
        chi = random_smooth_chi(grid, rng)
        gi = float(np.max(np.abs(spectral_gradient(grid, chi))))
        for s in (0.5, 1.0):
            if commutator_norm(grid, s, 1.0, chi) > TOL.c_cal_commutator * gi:
                failures.append(f"commutator bound s={s}")
    gdil = PeriodicGrid1D(768, 384.0)
    prods = np.array([rr * commutator_norm(gdil, 0.5, 1.0, tanh_bump(gdil, 3 * rr, rr))
                      for rr in (1.0, 2.0, 4.0, 8.0, 16.0)])
    gmean = np.exp(np.mean(np.log(prods)))
    if max(prods.max() / gmean, gmean / prods.min()) > 2.0:
        failures.append("commutator dilation decay")

    # localization defect spectrum and double commutator, 10 random chi
    for i in range(10):
        chi = random_smooth_chi(grid, rng)
        for s in (0.3, 0.5, 0.7):
            out = localization_defect(grid, s, chi)
            if out["eig_min"] < -1e-8:
                failures.append(f"L_chi eig_min chi#{i} s={s}")
            if out["eig_max"] > out["upper_bound"] * (1 + 1e-6):
                failures.append(f"L_chi eig_max chi#{i} s={s}")
            if out["double_commutator_norm"] > out["double_commutator_bound"]:
                failures.append(f"double commutator chi#{i} s={s}")

    # IMS: fractional defect and the classical band-limited limit
    part = partition_pair(grid, 8.0, 1.5)
    if ims_defect(grid, 0.5, part) < -1e-8:
        failures.append("ims defect")
    g512 = PeriodicGrid1D(512, 64.0)
    phi = 2 * np.pi * 3 * g512.x / g512.length
    cospart = [np.cos(phi), np.sin(phi)]
    lap = build_fractional(g512, 1.0, 0.0)
    acc = lap.copy()
    gsq = np.zeros(g512.n)
    for chi in cospart:
        acc -= np.diag(chi) @ lap @ np.diag(chi)
        d = spectral_gradient(g512, chi)
        gsq += d * d
    proj = band_projector(g512, 7)
    classical = operator_norm_matrix(proj @ (acc + np.diag(gsq)) @ proj)
    if classical > 1e-10 * operator_norm_matrix(lap):
        failures.append("classical IMS identity")

    # hermiticity across the size range
    for n, length in ((128, 32.0), (512, 64.0)):
        gg = PeriodicGrid1D(n, length)
        if hermiticity_defect(build_fractional(gg, 0.5, 1.0)) > 1e-12:
            failures.append(f"hermiticity n={n}")

    # subcritical ratio stability across the corpus
    gsub = PeriodicGrid1D(1024, 256.0)
    x = gsub.x

    def b(c, w, a):
        d = np.abs(x - c)
        d = np.minimum(d, gsub.length - d)
        return a * np.exp(-(d**2) / (2 * w * w))

    corpus = {
        "fixed": SequenceFamily([b(128.0, 2.0, 1.0)] * 8),
        "translated": SequenceFamily([b(100.0 + 6.0 * n, 2.0, 1.0) for n in range(8)]),
        "spreading": SequenceFamily(
            [b(128.0, w, 1.0 / np.sqrt(w / 2.0)) for w in (2.0, 3.0, 4.0, 6.0)]),
        "two_bump": SequenceFamily(
            [b(128.0 - 6.0 * n, 2.0, 1.0) + b(128.0 + 6.0 * n, 2.0, 0.7)
             for n in range(2, 10)]),
        "modulated": SequenceFamily([b(128.0, 2.0, 1.0) * np.cos(0.3 * x)
                                     for _ in range(8)]),
    }
    ratios = []
    for name, fam in corpus.items():
        out = subcritical_check(gsub, fam, 0.5, 8.0, TOL.c_cal_subcritical)
        if not out["pass"]:
            failures.append(f"subcritical bound {name}")
        ratios.append(out["ratio"])
    ratios = np.array(ratios)
    if ratios.max() / ratios.min() > 3.0:
        failures.append("subcritical stability factor 3")

    # profile decomposition of the constructed two-bump family
    gprof = PeriodicGrid1D(2048, 1024.0)

    def pb(c, w, a=1.0):
        d = np.abs(gprof.x - c)
        d = np.minimum(d, gprof.length - d)
        return a * np.exp(-(d**2) / (2 * w * w))

    mm = l2_norm(gprof, pb(0.0, 1.0)) ** 2
    members = [(pb(512.0 - 5.0 * n, 1.0) + pb(512.0 + 5.0 * n, 1.0, 1.0 / np.sqrt(2)))
               / np.sqrt(mm) for n in range(2, 26)]
    out = profile_decompose(gprof, SequenceFamily(members), 0.5, eps=1e-3)
    masses = [p["mass"] for p in out["profiles"]]
    if len(masses) != 2 or abs(masses[0] - 1.0) > 0.05 or abs(masses[1] - 0.5) > 0.05:
        failures.append("two-bump masses")
    sep = abs(out["profiles"][0]["centers"][-1] - out["profiles"][1]["centers"][-1])
    if sep < 5.0 * out["radii"][-1]:
        failures.append("profile disjointness")
    if out["profile_mass_sum"] > out["mass_budget"] * (1 + 1e-6):
        failures.append("mass bookkeeping")

    elapsed = time.time() - t0
    if elapsed >= 300.0:
        failures.append("runtime")
    report(10, not failures,
           "operator lab: scalar identity to 1e-8; commutator bounds and 1/R decay; "
           "L_chi spectrum in [-1e-8, 4s|grad chi|^2]; double commutator <= 8s|grad chi|^2; "
           f"IMS >= -1e-8; subcritical corpus within factor 3; two-bump profiles; "
           f"{elapsed:.0f}s (<300s)"
           + ("" if not failures else f"; failures: {failures}"))
