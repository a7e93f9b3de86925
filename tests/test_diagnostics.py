import dataclasses
import json
import operator
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bosonstar import diagnostics
from bosonstar.diagnostics import (
    _TRANSFORMING,
    CHECKS,
    TAIL,
    CheckRecord,
    Cutoff,
    InsufficientSnapshots,
    NotTightOnGrid,
    ball_mass,
    blowup_measure,
    concentration_function,
    cutoff_bank,
    exterior_convergence_check,
    localized_mass_series,
    minimal_concentration_check,
    parse_checks,
    propagation_bound_check,
    run_checks,
    smooth_bump,
    smooth_exterior,
    tightness_check,
    virial_check,
)
from bosonstar.config import Tolerances
from bosonstar.evolution import (
    HORIZON_REACHED,
    NORM_CAP,
    STEP_FLOOR,
    SnapshotRows,
    evolve,
)
from bosonstar.spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    _DOT_SERIAL_MAX,
    field_from_profile,
    gaussian_field,
    kernel,
    mass,
)
from conftest import BLOWUP_CONTROLS, make_blowup_u0
from oracles import (dilation_decay_check, free_evolution, reference_run_checks,
                     trajectory_from_snapshots)

GRID = RadialGrid(1024, 64.0)
TOL = Tolerances()
P0 = ModelParams(0.0)
P1 = ModelParams(1.0)


def density(f):
    return np.abs(f.values) ** 2


# the checks that run_checks runs in this process, and those it runs in its forked worker
SIDES = [",".join(name for name in CHECKS if name not in _TRANSFORMING), ",".join(_TRANSFORMING)]


def stationary_traj(grid=GRID, omega=2.0, n_snaps=8, width=1.5, params=P1,
                    termination=HORIZON_REACHED):
    prof = gaussian_field(grid, 1.0, width)
    times = [0.2 * i for i in range(n_snaps)]
    fields = [Field(grid, np.exp(1j * omega * t) * prof.values) for t in times]
    return trajectory_from_snapshots(fields, times, params, termination=termination)


class TestCutoffs:
    def test_bank_shape(self):
        bank = cutoff_bank(GRID, TOL.bank_radii)
        assert len(bank) == 8
        for chi in bank:
            assert chi.samples.min() >= -1e-12 and chi.samples.max() <= 1 + 1e-12
            assert chi.grad_inf > 0

    def test_bump_exterior_complementary(self):
        b = smooth_bump(GRID, 8.0)
        e = smooth_exterior(GRID, 8.0)
        assert np.allclose(b.samples + e.samples, 1.0, atol=1e-14)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            Cutoff(kind="custom", samples=np.full(GRID.n_points, 1.5), grad_inf=1.0)


class TestLocalizedMass:
    def test_unit_cutoff_gives_mass(self):
        f = gaussian_field(GRID, 1.0, 2.0)
        one = Cutoff(kind="custom", samples=np.ones(GRID.n_points), grad_inf=0.0)
        rho = density(f)
        assert kernel(GRID, P0).mass(one.samples * rho) == pytest.approx(mass(f), rel=1e-12)

    def test_disjoint_support_gives_zero(self):
        f = field_from_profile(GRID, lambda r: np.where(r < 4.0, 1.0, 0.0))
        # a tanh exterior at 40 with width 2, sharper than the bank's radius / 4
        chi = Cutoff(kind="custom", samples=0.5 * (1.0 + np.tanh((GRID.r - 40.0) / 2.0)),
                     grad_inf=0.25)
        assert kernel(GRID, P0).mass(chi.samples * density(f)) < 1e-12 * mass(f)

    def test_partition_sums_to_mass(self):
        f = gaussian_field(GRID, 1.0, 3.0)
        b = smooth_bump(GRID, 8.0)
        e = smooth_exterior(GRID, 8.0)
        kern = kernel(GRID, P0)
        total = kern.mass(b.samples * density(f)) + kern.mass(e.samples * density(f))
        assert total == pytest.approx(mass(f), rel=1e-12)


class TestPropagation:
    def test_insufficient_snapshots(self):
        traj = stationary_traj(n_snaps=2)
        with pytest.raises(InsufficientSnapshots):
            propagation_bound_check(traj, smooth_bump(GRID, 4.0), 1.0)

    def test_constant_cutoff_rate_vanishes(self, subcritical_traj):
        chi = Cutoff(kind="custom", samples=np.ones(subcritical_traj.grid.n_points),
                     grad_inf=1e-30)
        ts = np.array([s.t for s in subcritical_traj.snapshots])
        (ms,) = localized_mass_series(subcritical_traj, [chi])
        assert np.max(np.abs(np.diff(ms) / np.diff(ts))) < 1e-9

    def test_rate_stable_under_snapshot_refinement(self, dilation_traj):
        chi = smooth_bump(dilation_traj.grid, 4.0)
        full = propagation_bound_check(dilation_traj, chi, 1e9).statistic
        thin = trajectory_from_snapshots(
            [s.field for s in dilation_traj.snapshots[::2]],
            [s.t for s in dilation_traj.snapshots[::2]],
            dilation_traj.params)
        halved = propagation_bound_check(thin, chi, 1e9).statistic
        assert halved == pytest.approx(full, rel=0.1)

    def test_dilation_decay_scaling(self, dilation_traj):
        rec = dilation_decay_check(dilation_traj, radii=(2.0, 4.0, 8.0, 16.0), factor=2.0)
        assert rec.passed, rec.params


class TestTightness:
    def test_stationary_profile_radius(self):
        traj = stationary_traj(width=1.5)
        eps = 0.01 * traj.initial_mass
        r_star = tightness_check(traj, eps)
        # oracle: the eps-support radius of the profile itself
        f = traj.snapshots[0].field
        rho = np.abs(f.values) ** 2 * GRID.weight * GRID.r**2
        ext = np.cumsum(rho[::-1])[::-1]
        expected = GRID.r[np.nonzero(ext <= eps)[0][0]]
        assert r_star == pytest.approx(expected, abs=GRID.dr)

    def test_huge_eps_gives_first_point(self):
        traj = stationary_traj()
        assert tightness_check(traj, 2.0 * traj.initial_mass) == pytest.approx(GRID.dr)

    def test_boundary_blob_not_tight(self):
        f = field_from_profile(
            GRID, lambda r: np.exp(-((r - 0.98 * GRID.r_max) ** 2) / 0.5))
        traj = trajectory_from_snapshots([f], [0.0], P1)
        with pytest.raises(NotTightOnGrid):
            tightness_check(traj, 1e-9 * mass(f))


class TestConcentration:
    def test_whole_domain_ball(self):
        f = gaussian_field(GRID, 1.0, 2.0)
        center, value = concentration_function(density(f), kernel(GRID, P0), GRID.r_max + 1.0)
        assert center == 0.0
        assert value == pytest.approx(mass(f), rel=1e-12)

    def test_origin_bump_concentrates_at_origin(self):
        f = gaussian_field(GRID, 1.0, 0.5)
        center, value = concentration_function(density(f), kernel(GRID, P0), 1.5)
        assert abs(center) <= 2 * GRID.dr
        assert value > 0.99 * mass(f)

    def test_off_center_shell_against_brute_force(self):
        a = 6.0
        f = field_from_profile(GRID, lambda r: np.exp(-((r - a) ** 2) / 0.25))
        R = 2.0
        kern = kernel(GRID, P0)
        center, value = concentration_function(density(f), kern, R)
        # oracle: exhaustive scan of every grid center
        vals = np.array([ball_mass(density(f), kern, d, R) for d in GRID.r])
        best = GRID.r[int(np.argmax(vals))]
        assert abs(center - best) <= 2 * GRID.dr
        assert value >= vals.max() * (1 - 1e-9)
        # oracle for the shell-restricted sum: the cap fraction of every shell
        r = GRID.r
        for d in (0.5, 1.0, 1.5, 2.0, 3.0, a, 9.0):
            cstar = np.clip((r**2 + d**2 - R**2) / (2.0 * r * d), -1.0, 1.0)
            all_shells = 2.0 * np.pi * GRID.dr * np.sum(density(f) * r**2 * (1.0 - cstar))
            assert ball_mass(density(f), kern, d, R) == pytest.approx(
                all_shells, rel=1e-13, abs=1e-15 * vals.max())

    def test_origin_ball_mass_matches_direct_sum(self):
        # at center 0 the shell-cap formula cuts no shell: bit for bit the sum
        # over the shells r <= radius, radii on grid points included
        rng = np.random.default_rng(3)
        cases = [(GRID, density(gaussian_field(GRID, 1.0, 1.0)), 2.5)]
        for grid in (GRID, RadialGrid(512, 8.0), RadialGrid(4096, 128.0)):
            for _ in range(20):
                rho = rng.random(grid.n_points) * np.exp(-grid.r / rng.uniform(0.5, 8.0))
                cases += [(grid, rho, grid.r[rng.integers(grid.n_points)]),
                          (grid, rho, rng.uniform(0.0, grid.r_max))]
        for grid, rho, radius in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ball_mass(rho, kernel(grid, P0), 0.0, radius)
            assert got == float(grid.weight * np.sum((rho * grid.r**2)[grid.r <= radius]))

    def test_gate_on_subcritical_run(self, subcritical_traj, acceptance_gs):
        recs = minimal_concentration_check(subcritical_traj, acceptance_gs,
                                           TOL.conc_mass_fraction, TOL.conc_center_cells)
        assert len(recs) == 1
        assert recs[0].params["applicable"] is False
        assert recs[0].passed

    def test_blowup_run_concentrates_critical_mass(self, blowup_traj, acceptance_gs):
        recs = minimal_concentration_check(blowup_traj, acceptance_gs,
                                           TOL.conc_mass_fraction, TOL.conc_center_cells)
        by_name = {r.check: r for r in recs}
        assert by_name["minimal_concentration"].passed
        assert by_name["minimal_concentration"].statistic >= 0.9
        assert by_name["concentration_center"].passed
        assert by_name["concentration_center"].statistic <= 3 * blowup_traj.grid.dr


class TestBlowupMeasure:
    @staticmethod
    def histogram(traj, bins):
        return blowup_measure(traj, bins, cutoff_bank(traj.grid, (2.0,)), c_cal=8.0)[0]

    def test_histograms_conserve_mass(self, blowup_traj):
        hist = self.histogram(blowup_traj, 64)
        m0 = blowup_traj.initial_mass
        for row in hist["masses"]:
            assert abs(sum(row) - m0) < 1e-9 * m0

    def test_innermost_bin_nondecreasing_late(self, blowup_traj):
        hist = self.histogram(blowup_traj, 64)
        resolved_idx = [i for i, s in enumerate(blowup_traj.snapshots) if s.resolved][-5:]
        inner = [hist["masses"][i][0] for i in resolved_idx]
        assert np.all(np.diff(inner) >= 0)

    def test_cauchy_oscillation_bounded(self, blowup_traj):
        bank = cutoff_bank(blowup_traj.grid, (2.0, 4.0))
        _, recs = blowup_measure(blowup_traj, 32, cutoffs=bank, c_cal=8.0)
        assert recs and all(r.passed for r in recs)

    def test_free_flow_window_oscillation_shrinks(self, dilation_traj):
        chi = smooth_bump(dilation_traj.grid, 8.0)
        (ms,) = localized_mass_series(dilation_traj, [chi])
        # oscillation over suffix windows is nonincreasing as the window shrinks
        oscs = [np.ptp(ms[i:]) for i in range(0, len(ms) - 2, 10)]
        assert np.all(np.diff(oscs) <= 1e-12)


class TestExteriorConvergence:
    def test_blowup_run_passes(self, blowup_traj):
        recs = exterior_convergence_check(blowup_traj, 5.0, blowup_traj.params,
                                          TOL.exterior_final_frac)
        by_name = {r.check: r for r in recs}
        assert by_name["exterior_cauchy"].passed
        dists = by_name["exterior_cauchy"].params["distances"]
        assert np.all(np.diff(dists) <= 1e-14)
        assert by_name["newton_potential_sup"].passed
        assert by_name["duhamel_potential_term"].passed

    def test_ingoing_free_flow_vacuous_pass(self):
        # data converging into the ball: the exterior norm itself decays
        grid = RadialGrid(2048, 128.0)
        pulse = gaussian_field(grid, 1.0, 1.0)
        shell = Field(grid, np.conj(free_evolution(pulse, P0, 20.0).values))
        times = list(np.linspace(15.0, 20.0, 6))
        fields = [free_evolution(shell, P0, t) for t in times]
        traj = trajectory_from_snapshots(fields, times, P0)
        recs = exterior_convergence_check(traj, 5.0, P0, TOL.exterior_final_frac)
        assert all(r.passed for r in recs)

    def test_insufficient_snapshots(self):
        traj = stationary_traj(n_snaps=3)
        with pytest.raises(InsufficientSnapshots):
            exterior_convergence_check(traj, 5.0, P1, TOL.exterior_final_frac)


class TestBlowupHypothesis:
    @pytest.mark.parametrize("termination", [NORM_CAP, HORIZON_REACHED])
    def test_a_stop_that_is_not_a_blowup_is_not_applicable(self, termination, acceptance_gs):
        traj = stationary_traj(termination=termination)
        assert not traj.blowup_suspected
        records, _ = run_checks(traj, acceptance_gs, TOL, "concentration,exterior")
        assert [(r.check, r.passed, r.params) for r in records] == [
            (name, True, {"applicable": False, "termination": termination})
            for name in ("minimal_concentration", "exterior_cauchy")]

    def test_the_same_fields_at_the_step_floor_are_checked(self, acceptance_gs):
        traj = stationary_traj(termination=STEP_FLOOR)
        assert traj.blowup_suspected
        records, _ = run_checks(traj, acceptance_gs, TOL, "concentration,exterior")
        assert [r.check for r in records] == [
            "minimal_concentration", "concentration_center", "exterior_cauchy",
            "newton_potential_sup", "duhamel_potential_term"]
        assert all(np.isfinite(r.statistic) for r in records)
        assert records[0].params["applicable"] is True
        assert len(records[2].params["distances"]) == TAIL - 1

    @pytest.mark.parametrize("check", list(CHECKS))
    def test_a_window_check_reads_each_row_once(self, check, monkeypatch, acceptance_gs):
        # every check, not only the window ones: each row it needs, once, in order
        traj = stationary_traj(termination=STEP_FLOOR)
        reads = []
        read = SnapshotRows.__getitem__

        def counted(rows, i):
            reads.append(range(len(rows))[i])
            return read(rows, i)

        monkeypatch.setattr(SnapshotRows, "__getitem__", counted)
        records, _ = run_checks(traj, acceptance_gs, TOL, check)
        assert records and all(np.isfinite(r.statistic) for r in records)
        needed = {"virial": traj.resolved_snapshots(),
                  "concentration": traj.resolved_snapshots()[-TAIL:],
                  "exterior": traj.resolved_snapshots()[-TAIL:]}.get(check, traj.snapshots)
        assert reads == [s.row for s in needed]


class TestVirial:
    def test_gaussian_oracle_massless(self):
        g = RadialGrid(2048, 32.0)
        f = gaussian_field(g, 1.0, 1.0)
        w = kernel(g, P0).virial_weight(f.values)
        assert w == pytest.approx(4 * np.pi, rel=1e-6)

    def test_gaussian_oracle_massive(self):
        g = RadialGrid(2048, 32.0)
        f = gaussian_field(g, 1.0, 1.0)
        oracle = 4 * np.pi * quad(
            lambda k: np.sqrt(k * k + 1.0) * k**4 * np.exp(-(k**2)), 0, np.inf)[0]
        w = kernel(g, P1).virial_weight(f.values)
        assert w == pytest.approx(oracle, rel=1e-6)

    @staticmethod
    def unit_symbol_identity(u):
        # with omega = 1 the weight is ||x u||^2 = 4 pi int r^4 |u|^2 dr, by Parseval
        kern = RadialKernel(u.grid, P0)
        kern.omega = np.ones_like(kern.k)
        g = u.grid
        return kern.virial_weight(u.values), g.weight * np.sum(g.r**4 * np.abs(u.values) ** 2)

    def test_unit_symbol_identity_gaussian(self):
        w, second_moment = self.unit_symbol_identity(gaussian_field(RadialGrid(2048, 32.0)))
        assert w == pytest.approx(second_moment, rel=1e-13)

    def test_unit_symbol_identity_collapsed_core(self, blowup_traj):
        # the last resolved blowup snapshot: the collapsed core at the grid's resolution limit
        w, second_moment = self.unit_symbol_identity(blowup_traj.resolved_snapshots()[-1].field)
        assert w == pytest.approx(second_moment, rel=1e-13)

    def test_stationary_input_constant(self):
        traj = stationary_traj(n_snaps=6)
        ws = [kernel(traj.grid, P1).virial_weight(s.field.values) for s in traj.snapshots]
        assert np.max(np.abs(np.diff(ws))) < 1e-8 * abs(ws[0])

    def test_w0_matches_direct_evaluation(self, blowup_traj):
        rec = virial_check(blowup_traj, blowup_traj.params, TOL.virial_envelope_slack,
                           TOL.virial_residual)
        # the fit is anchored at snapshots whose first entry is the initial datum
        w0_direct = kernel(blowup_traj.grid, blowup_traj.params).virial_weight(
            blowup_traj.snapshots[0].field.values)
        assert blowup_traj.snapshots[0].t == 0.0
        assert w0_direct > 0
        assert rec.params["n_snapshots"] >= 4

    def test_blowup_envelope(self, blowup_traj):
        rec = virial_check(blowup_traj, blowup_traj.params, TOL.virial_envelope_slack,
                           TOL.virial_residual)
        assert rec.passed
        e0 = blowup_traj.initial_energy
        assert e0 < 0
        assert rec.statistic <= 2 * e0 + 0.1 * abs(2 * e0)
        assert rec.params["fit_residual"] < 0.05

    def test_insufficient_snapshots(self):
        traj = stationary_traj(n_snaps=3)
        with pytest.raises(InsufficientSnapshots):
            virial_check(traj, P1, TOL.virial_envelope_slack, TOL.virial_residual)


class TestReportPlumbing:
    def test_check_record_schema(self):
        rec = CheckRecord("demo", {"a": 1}, 0.5, 1.0, True)
        d = rec.to_dict()
        assert set(d) == {"check", "params", "statistic", "bound", "pass"}

    @pytest.mark.parametrize("check, relation", [
        ("minimal_concentration", " >= bound=0.9"), ("tightness", " < bound=0.9"),
        ("propagation_bound", " <= bound=0.9")])
    def test_line_states_the_direction(self, check, relation):
        rec = CheckRecord(check, {}, 0.95, 0.9, check == "minimal_concentration",
                          relation.split()[0])
        assert relation in rec.line()
        assert "relation" not in rec.to_dict()

    @pytest.mark.parametrize("statistic, bound, relation, passed", [
        (0.9, 0.9, "<", False), (0.9, 0.9, "<=", True), (0.9, 0.9, ">=", True),
        (0.8, 0.9, ">=", False), (2, 2, "==", True), (3, 2, "==", False),
        (float("nan"), 1.0, "<=", False), (float("nan"), 1.0, ">=", False),
        (float("nan"), float("nan"), "<=", False)],
        ids=["strict_at_equality", "le_at_equality", "ge_at_equality", "ge_below",
             "count_equal", "count_differs", "nan_le", "nan_ge", "cannot_run"])
    def test_verdict_comes_from_the_relation(self, statistic, bound, relation, passed):
        rec = CheckRecord("demo", {}, statistic, bound, relation=relation)
        assert rec.passed is passed

    @pytest.mark.parametrize("passed", [True, False])
    def test_a_given_verdict_is_kept(self, passed):
        # a compound or not-applicable record states its own verdict
        rec = CheckRecord("demo", {}, 2.0, 1.0, passed)
        assert rec.passed is passed and rec.to_dict()["pass"] is passed

    def test_line_of_a_check_that_cannot_run_states_the_error(self):
        rec = CheckRecord("virial_envelope", {"error": "need at least 4 resolved snapshots"},
                          float("nan"), float("nan"), False)
        assert rec.line() == "  [FAIL] virial_envelope: need at least 4 resolved snapshots"

    def test_run_checks_reports_missing_snapshots_as_one_failed_record(self):
        records, histogram = run_checks(stationary_traj(n_snaps=1), None, TOL,
                                        "virial,tightness,measure")
        tight, measure, virial = records  # in the order of CHECKS
        assert histogram is None  # measure could not run
        assert (virial.check, virial.passed) == ("virial_envelope", False)
        assert "4 resolved snapshots" in virial.params["error"]
        assert (measure.check, measure.passed) == ("measure_cauchy", False)
        assert "2 snapshots" in measure.params["error"]
        assert tight.check == "tightness" and tight.passed

    def test_run_checks_reports_an_empty_bank_as_one_failed_record(self):
        # no bank radius lies below 0.9 r_max = 1.8
        traj = stationary_traj(grid=RadialGrid(512, 2.0), width=0.2)
        records, _ = run_checks(traj, None, TOL, "propagation,measure")
        assert [(r.check, r.passed) for r in records] == [
            ("propagation_bound", False), ("measure_cauchy", False)]
        assert all("no bank_radii entry" in r.params["error"] for r in records)

    def test_run_checks_holds_no_all_rows_density(self, blowup_traj, acceptance_gs):
        # one side of the split at a time, so that it runs here, where tracemalloc sees it
        traj = dataclasses.replace(blowup_traj)  # a fresh Trajectory over the same fields
        records = []
        for checks in SIDES:
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                records += run_checks(traj, acceptance_gs, TOL, checks)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # O(n): a dozen rows at most, whatever the snapshot count (85 rows here)
            assert len(traj.snapshots) > 12 and peak - held < 12 * 16 * traj.grid.n_points
        assert len(records) > len(CHECKS)

    def test_run_checks_builds_one_kernel(self, blowup_traj, acceptance_gs):
        # every check reads the run's (grid, params) kernel: no m = 0 kernel beside it; one
        # side of the split at a time, so that its kernels are built here
        for checks in SIDES:
            kernel.cache_clear()
            run_checks(blowup_traj, acceptance_gs, Tolerances(), checks)
            assert kernel.cache_info().currsize == 1
            kernel(blowup_traj.grid, P1)  # the one entry is the run's m = 1 kernel
            assert kernel.cache_info().currsize == 1

    def test_run_checks_propagation_matches_one_cutoff_at_a_time(self, subcritical_traj):
        bank = cutoff_bank(subcritical_traj.grid, TOL.bank_radii)
        records, histogram = run_checks(subcritical_traj, None, TOL, "propagation")
        assert records == [propagation_bound_check(subcritical_traj, chi, 8.0) for chi in bank]
        assert histogram is None

    def test_run_checks_rejects_an_unknown_check(self):
        with pytest.raises(ValueError, match="tightnes"):
            run_checks(stationary_traj(n_snaps=3), None, TOL, "tightnes")

    @pytest.mark.parametrize("checks", ["newton,,virial", ""])
    def test_an_empty_check_name_is_named(self, checks):
        with pytest.raises(ValueError, match="^checks has unknown names ''$"):
            parse_checks(checks)

    def test_printed_direction_agrees_with_the_verdict(self, blowup_traj, acceptance_gs):
        from bosonstar.operator_lab import PeriodicGrid1D, run_suite

        ops = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}
        records, _ = run_checks(blowup_traj, acceptance_gs, TOL, "all")
        for seed in (0, 1, 2):
            records += run_suite("all", PeriodicGrid1D(128, 32.0), 0.5, TOL, seed)
        compound = {"exterior_cauchy", "virial_envelope"}  # their verdicts join two conditions
        judged = [r for r in records if r.check not in compound
                  and np.isfinite(r.statistic) and np.isfinite(r.bound)]
        assert {r.relation for r in judged} == set(ops)
        assert [r.check for r in judged if r.passed != ops[r.relation](r.statistic, r.bound)] == []


def raising(exc):
    def check(*args, **kwargs):
        raise exc
    return check


def counted_forks(monkeypatch) -> list:
    """A list that gains an entry each time this process calls os.fork."""
    fork, calls = os.fork, []

    def counted():
        calls.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


def report(records, histogram) -> list:
    """The report.json text of each record and of the histogram, as diagnose writes them."""
    return [json.dumps(r.to_dict()) for r in records] + [json.dumps(histogram)]


class TestDiagnoseWorker:
    """run_checks runs the _TRANSFORMING checks in a forked worker beside the others; the
    serial loop of oracles.reference_run_checks is the reference it must match exactly."""

    @pytest.mark.parametrize("checks, forks", [("all", 1), (SIDES[0], 0), (SIDES[1], 0)],
                             ids=["all", "local", "forked"])
    @pytest.mark.parametrize("run", ["blowup_traj", "subcritical_traj"])
    def test_matches_the_serial_reference(self, run, checks, forks, request, monkeypatch,
                                          acceptance_gs):
        traj = request.getfixturevalue(run)
        calls = counted_forks(monkeypatch)
        got = run_checks(traj, acceptance_gs, TOL, checks)
        assert len(calls) == forks  # a one-sided choice runs here and forks nothing
        want = reference_run_checks(traj, acceptance_gs, TOL, checks)
        assert [r.passed for r in got[0]] == [r.passed for r in want[0]]
        assert report(*got) == report(*want)

    @pytest.mark.parametrize("patched, checks, error", [
        ("virial_check", "tightness,virial", ZeroDivisionError("probe")),
        ("tightness_check", "tightness,virial", ZeroDivisionError("parent probe")),
        ("minimal_concentration_check", "tightness,concentration,newton",
         InsufficientSnapshots("probe")),
    ], ids=["worker_raises", "caller_raises", "worker_cannot_run"])
    def test_a_failure_on_either_side_reaps_the_worker(self, patched, checks, error,
                                                       monkeypatch, acceptance_gs):
        monkeypatch.setattr(diagnostics, patched, raising(error))
        calls, mask = counted_forks(monkeypatch), os.sched_getaffinity(0)
        traj = stationary_traj(termination=STEP_FLOOR)
        if isinstance(error, InsufficientSnapshots):  # one failed record, in CHECKS order
            records, _ = run_checks(traj, acceptance_gs, TOL, checks)
            assert [(r.check, r.passed, r.params.get("error")) for r in records] == [
                ("tightness", True, None), ("minimal_concentration", False, "probe"),
                ("newton_bound", True, None)]
        else:  # raised here with its type and message
            with pytest.raises(type(error), match=f"^{error}$"):
                run_checks(traj, acceptance_gs, TOL, checks)
        assert len(calls) == 1
        with pytest.raises(ChildProcessError):  # the worker is reaped
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == mask

    def test_no_worker_calls_threaded_blas(self, tmp_path, monkeypatch, acceptance_gs,
                                           blowup_traj):
        # OpenBLAS threads an np.dot above _DOT_SERIAL_MAX entries, and threaded BLAS crawls
        # in a worker pinned to one CPU (see evolution._forked); each np.dot call, in any
        # process, appends "pid entries" to one O_APPEND file
        fd = os.open(tmp_path / "dots", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def recorded(a, b, *args, _dot=np.dot):
            os.write(fd, f"{os.getpid()} {max(np.size(a), np.size(b))}\n".encode())
            return _dot(a, b, *args)
        monkeypatch.setattr(np, "dot", recorded)
        try:
            short = evolve(make_blowup_u0(acceptance_gs), P1,
                           dataclasses.replace(BLOWUP_CONTROLS, t_end=0.2, snapshot_stride=1))
            for traj in (short, blowup_traj):  # the second one has every check applicable
                run_checks(traj, acceptance_gs, TOL, "all")
        finally:
            os.close(fd)
        calls = [line.split() for line in (tmp_path / "dots").read_text().splitlines()]
        assert short.grid.n_points == 16384 and len(short.snapshots) > 4
        # this process, evolve's record worker and each run_checks' diagnose worker
        assert len({pid for pid, _ in calls}) == 4
        assert max(int(entries) for _, entries in calls) <= _DOT_SERIAL_MAX
