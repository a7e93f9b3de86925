import numpy as np
import pytest

from bosonstar.ground_state import (
    DivergentIterate,
    NonConvergence,
    ZeroField,
    equation_residual,
    gn_ratio,
    pohozaev_residual,
    solve_ground_state,
)
from bosonstar.spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    energy,
    gaussian_field,
    kernel,
    mass,
)
from oracles import energy_threshold_check, random_smooth_field, rescale_field, zero_field

GRID = RadialGrid(1024, 48.0)


@pytest.fixture(scope="module")
def gs():
    return solve_ground_state(GRID, tol=1e-10)


class TestSolver:
    def test_equation_residual(self, gs):
        assert gs.equation_residual < 1e-8

    def test_pohozaev_identity(self, gs):
        # dilation identity of the profile equation; modest grid, modest tolerance
        assert gs.pohozaev_residual < 1e-5

    def test_positive_and_monotone(self, gs):
        q = gs.q.values.real
        core = GRID.r < 24.0
        assert np.all(q[core] > 0)
        assert np.all(np.diff(q[core]) <= 1e-10)

    def test_critical_mass_consistency(self, gs):
        assert abs(gs.critical_mass * gs.c_opt - 2.0) < 1e-12
        assert gs.critical_mass == pytest.approx(mass(gs.q), rel=1e-14)

    def test_seed_with_converged_profile_is_fixed_point(self, gs):
        redo = solve_ground_state(GRID, tol=1e-8, seed=gs.q)
        assert redo.iterations <= 2
        dq = np.linalg.norm(redo.q.values - gs.q.values) / np.linalg.norm(gs.q.values)
        assert dq < 1e-7

    def test_cross_seed_mass_agreement(self, gs):
        sech = solve_ground_state(GRID, tol=1e-10, seed="sech")
        assert abs(sech.critical_mass - gs.critical_mass) < 1e-6 * gs.critical_mass

    def test_non_convergence_error(self):
        with pytest.raises(NonConvergence, match=r"after 3 sweeps$"):
            solve_ground_state(GRID, tol=1e-14, max_iter=3)

    def test_lost_pairing_names_its_sweep(self, monkeypatch):
        # a repulsive potential makes <Q, V_Q Q> negative in the first sweep
        potential = RadialKernel.potential
        monkeypatch.setattr(RadialKernel, "potential", lambda kern, rho: -potential(kern, rho))
        with pytest.raises(DivergentIterate, match=r"positivity in sweep 1$"):
            solve_ground_state(GRID, tol=1e-10, max_iter=50)

    def test_divergent_iterate_error(self):
        # a destabilizing normalization exponent amplifies the scaling mode
        with pytest.raises((DivergentIterate, NonConvergence)):
            solve_ground_state(GRID, tol=1e-12, max_iter=400, gamma=8.0)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            solve_ground_state(GRID, tol=-1.0)

    def test_unknown_seed_profile(self):
        with pytest.raises(ValueError):
            solve_ground_state(GRID, seed="triangle")


class TestGNRatio:
    def test_zero_field_rejected(self):
        with pytest.raises(ZeroField):
            gn_ratio(zero_field(GRID))

    def test_ground_state_attains_optimum(self, gs):
        assert gn_ratio(gs.q) == pytest.approx(gs.c_opt, rel=1e-5)

    def test_random_fields_below_optimum(self, gs):
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = random_smooth_field(GRID, rng)
            assert gn_ratio(f) <= gs.c_opt * (1 + 1e-6)

    def test_strict_margin_for_random_fields(self, gs):
        rng = np.random.default_rng(11)
        ratios = [gn_ratio(random_smooth_field(GRID, rng)) for _ in range(200)]
        assert max(ratios) < gs.c_opt * (1 - 1e-6)

    def test_scaling_invariance(self, gs):
        f = gaussian_field(GRID, 1.1, 1.5)
        base = gn_ratio(f)
        for lam in (0.5, 2.0):
            assert gn_ratio(rescale_field(f, lam)) == pytest.approx(base, rel=1e-4)

    def test_scaling_invariance_exact_sampling(self):
        # analytic resampling avoids interpolation error; the domain is kept
        # wide relative to the profile because the half-derivative quadrature
        # carries an O((w/r_max)^4) truncation term
        g = RadialGrid(8192, 96.0)
        base_width = 0.4
        f = gaussian_field(g, 1.0, base_width)
        r0 = gn_ratio(f)
        for lam in (0.5, 2.0):
            flam = gaussian_field(g, lam**1.5, base_width / lam)
            assert gn_ratio(flam) == pytest.approx(r0, rel=1e-8)


class TestEnergyThreshold:
    def test_zero_field_slack_zero(self, gs):
        out = energy_threshold_check(zero_field(GRID), gs, ModelParams(0.0))
        assert out["slack"] == 0.0

    def test_equality_at_ground_state(self, gs):
        out = energy_threshold_check(gs.q, gs, ModelParams(0.0))
        scale = kernel(GRID, ModelParams(0.0)).homogeneous_half_sq(gs.q.values)
        assert abs(out["slack"]) < 1e-5 * scale

    def test_nonnegative_slack_random(self, gs):
        rng = np.random.default_rng(12)
        p = ModelParams(1.0)
        for _ in range(50):
            f = random_smooth_field(GRID, rng)
            out = energy_threshold_check(f, gs, p)
            assert out["slack"] >= -1e-8 * (1 + abs(out["energy"]))

    def test_positive_energy_below_critical_mass(self, gs):
        rng = np.random.default_rng(13)
        p = ModelParams(1.0)
        for _ in range(25):
            f = random_smooth_field(GRID, rng)
            scale = np.sqrt(0.8 * gs.critical_mass / mass(f))
            f = Field(GRID, scale * f.values)
            assert energy(f, p) > 0

    def test_massless_energy_of_ground_state_vanishes(self, gs):
        kern = kernel(GRID, ModelParams(0.0))
        assert abs(energy(gs.q, ModelParams(0.0))) < 1e-5 * kern.homogeneous_half_sq(gs.q.values)

    def test_residual_functions_match_solver_report(self, gs):
        assert equation_residual(gs.q) == pytest.approx(gs.equation_residual, rel=1e-10)
        assert pohozaev_residual(gs.q) == pytest.approx(gs.pohozaev_residual, rel=1e-10)
