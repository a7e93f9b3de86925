import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import bosonstar
from bosonstar.spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    SpectralField,
    abs2,
    coulomb_potential_density,
    dot,
    energy,
    field_from_json,
    field_from_profile,
    field_to_json,
    gaussian_field,
    inverse_radial_transform,
    kernel,
    mass,
    radial_transform,
)
from oracles import (hs_norm, newton_shell_potential, random_smooth_field,
                     trajectory_from_snapshots, zero_field)

GRID = RadialGrid(2048, 64.0)


def potential(f, route=coulomb_potential_density):
    return route(np.abs(f.values) ** 2, f.grid)


def multiply(f, symbol):
    """f with its coefficients times symbol(k), the way the kernel applies every multiplier."""
    kern = kernel(f.grid, ModelParams())
    return Field(f.grid, kern.inverse(kern.forward(f.values) * symbol(kern.k)))


def sine_mode(grid, m):
    k = grid.frequencies[m - 1]
    return field_from_profile(grid, lambda r: np.sin(k * r) / r)


class TestGrid:
    def test_spacing_consistency(self):
        g = RadialGrid(1000, 25.0)
        assert g.dr * g.n_points == pytest.approx(25.0, rel=1e-15)
        assert g.r[0] == pytest.approx(g.dr)
        assert g.r[-1] == pytest.approx(25.0)

    def test_frequencies_increasing(self):
        g = RadialGrid(64, 8.0)
        assert np.all(np.diff(g.frequencies) > 0)
        assert np.all(g.frequencies > 0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            RadialGrid(1, 4.0)
        with pytest.raises(ValueError):
            RadialGrid(64, -1.0)

    def test_negative_mass_param(self):
        with pytest.raises(ValueError):
            ModelParams(-0.5)


class TestTransform:
    def test_zero_maps_to_zero(self):
        c = radial_transform(zero_field(GRID)).coefficients
        assert np.all(c == 0)

    def test_single_mode_support(self):
        f = sine_mode(GRID, 5)
        c = np.abs(radial_transform(f).coefficients)
        peak = c[4]
        others = np.delete(c, 4)
        assert others.max() < 1e-12 * peak

    def test_round_trip_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = random_smooth_field(GRID, rng)
            back = inverse_radial_transform(radial_transform(f))
            err = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
            assert err < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_smooth_field(GRID, rng)
            c = radial_transform(f).coefficients
            assert abs(np.sum(np.abs(c) ** 2) - mass(f)) < 1e-10 * mass(f)


class TestKernel:
    def test_cached_per_grid_and_params(self):
        assert kernel(GRID, ModelParams()) is kernel(RadialGrid(2048, 64.0), ModelParams(0.0))
        assert kernel(GRID, ModelParams(1.0)) is not kernel(GRID, ModelParams(0.0))
        assert np.array_equal(kernel(GRID, ModelParams(1.0)).omega,
                              np.sqrt(GRID.frequencies**2 + 1.0))

    def test_energy_builds_only_its_params_kernel(self):
        kernel.cache_clear()
        energy(gaussian_field(GRID, 1.0, 2.0), ModelParams(1.0))
        assert kernel.cache_info().currsize == 1

    def test_only_spectral_names_scipy(self):
        # every DST and DCT in the package goes through the one kernel in spectral.py, which
        # loads pocketfft from its file; no module imports scipy.fft, and no check carries a
        # root-finding basis of its own
        import ast

        importers, namers = [], []
        for path in sorted(pathlib.Path(bosonstar.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    names = []
                if any(n.split(".")[:2] in (["scipy", "fft"], ["scipy", "optimize"])
                       for n in names):
                    importers.append(path.name)
                if (any(n.split(".")[0] == "scipy" for n in names)
                        or isinstance(node, ast.Constant) and id(node) not in docstrings
                        and "scipy" in str(node.value)):
                    namers.append(path.name)
        assert importers == []
        assert sorted(set(namers)) == ["spectral.py"]

    def test_importing_the_cli_loads_only_pocketfft_of_scipy(self):
        # the extension alone: importing scipy.fft would also load scipy.special and f2py.  A
        # later import of scipy.fft in the same process reuses the extension, not a second copy
        run = subprocess.run(
            [sys.executable, "-c", "import bosonstar.cli, sys; "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "from scipy.fft._pocketfft import pypocketfft; "
             "print(pypocketfft is bosonstar.spectral._pocketfft)"],
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(bosonstar.__file__).parents[1])),
            capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.splitlines() == ["scipy.fft._pocketfft.pypocketfft", "True"]

    def test_missing_extension_is_one_clear_import_error(self, tmp_path):
        # a scipy package without the extension first on the path: the error names the file;
        # with no scipy at all, it says so
        import importlib.machinery

        def last_line(code):
            src = str(pathlib.Path(bosonstar.__file__).parents[1])
            run = subprocess.run([sys.executable, "-c", code + "import bosonstar.spectral"],
                                 env=dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{src}"),
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 1
            return run.stderr.splitlines()[-1]

        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        missing = (tmp_path / "scipy" / "fft" / "_pocketfft"
                   / ("pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0]))
        need = "ImportError: bosonstar.spectral needs scipy's pocketfft extension"
        assert last_line("") == f"{need}, not found at {missing}"
        assert last_line("import sys; sys.modules['scipy'] = None; ") == (
            f"{need}, and scipy is not installed")

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("grid", [GRID, RadialGrid(16384, 64.0)])  # both complex paths
    def test_never_writes_its_inputs(self, dtype, grid):
        # the kernel transforms in place only arrays it has just allocated itself
        kern = RadialKernel(grid, ModelParams(1.0))

        def as_dtype(a):
            return np.ascontiguousarray(a if dtype is np.complex128 else a.real)

        u = as_dtype(random_smooth_field(grid, np.random.default_rng(4)).values)
        c = as_dtype(kern.forward(u))
        rho = np.abs(u) ** 2
        calls = [(kern.forward, u), (kern.inverse, c), (kern.potential, rho),
                 (kern.interaction, rho), (kern.strang, c, 1e-3)]
        for method, *args in calls:
            copies = [np.copy(a) for a in args]
            method(*args)
            for a, copy in zip(args, copies):
                assert np.array_equal(a, copy), method.__name__

    def test_rotation_matches_the_complex_exponential(self):
        # the phase factors of a Strang step are cos + i sin of the real argument
        from bosonstar.spectral import _rotation

        theta = np.random.default_rng(6).uniform(-50.0, 50.0, 4096)
        assert np.allclose(_rotation(theta), np.exp(1j * theta), rtol=0.0, atol=2.0**-52)

    @pytest.mark.parametrize("length", [511, 4095, 8191, 16383, 32767])
    def test_complex_transform_matches_scipy_complex_call(self, length):
        # the bits of scipy.fft's dst, idst and of virial_weight's type-I dct, on complex and
        # real inputs, signed zeros included
        import scipy.fft
        from scipy.fft._pocketfft import pypocketfft

        from bosonstar import spectral

        assert pypocketfft is spectral._pocketfft  # scipy.fft reuses the loaded extension
        assert sys.modules["scipy.fft._pocketfft.pypocketfft"] is spectral._pocketfft

        rng = np.random.default_rng(5)
        z = rng.normal(size=length) + 1j * rng.normal(size=length)
        z[::7] = -0.0 + 0.0j
        z[3::7] = complex(1.0, -0.0)
        for x in (z, np.ascontiguousarray(z.real)):
            ortho = scipy.fft.dst(x, type=1, norm="ortho")
            pairs = [(spectral._sine(x), ortho),
                     (spectral._sine(x), scipy.fft.idst(x, type=1, norm="ortho")),
                     (spectral._sine(x.copy(), overwrite_x=True), ortho),
                     (spectral._type_one(spectral._pocketfft.dct, x.copy(), 0, overwrite_x=True),
                      scipy.fft.dct(x, type=1))]
            for got, want in pairs:
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
                assert np.array_equal(np.signbit(got.view(np.float64)),
                                      np.signbit(want.view(np.float64)))


class TestMultiplier:
    def test_identity_symbol(self):
        rng = np.random.default_rng(0)
        f = random_smooth_field(GRID, rng)
        g = multiply(f, lambda k: np.ones_like(k))
        assert np.linalg.norm(g.values - f.values) < 1e-12 * np.linalg.norm(f.values)

    def test_eigenfunction(self):
        f = sine_mode(GRID, 3)
        k3 = GRID.frequencies[2]
        g = multiply(f, lambda k: kernel(GRID, ModelParams(0.0)).omega)  # sqrt(k^2 + m^2)
        assert np.linalg.norm(g.values - k3 * f.values) < 1e-10 * np.linalg.norm(k3 * f.values)

    def test_symbol_lower_bound(self):
        rng = np.random.default_rng(1)
        p = ModelParams(1.7)
        for _ in range(10):
            f = random_smooth_field(GRID, rng)
            c = radial_transform(f).coefficients
            quad_form = np.sum(np.sqrt(GRID.frequencies**2 + p.mass**2) * np.abs(c) ** 2)
            assert quad_form >= p.mass * mass(f) * (1 - 1e-12)

    def test_unimodular_symbol_preserves_mass(self):
        rng = np.random.default_rng(2)
        f = random_smooth_field(GRID, rng)
        p = ModelParams(1.0)
        g = multiply(f, lambda k: np.exp(-1.3j * np.sqrt(k * k + p.mass**2)))
        assert abs(mass(g) - mass(f)) < 1e-12 * mass(f)

    def test_resolvent_symbol_inverts(self):
        # (a + k^2)^{-1} then (a + k^2) is the identity on the resolved field
        rng = np.random.default_rng(14)
        f = random_smooth_field(GRID, rng)
        a = 2.5
        g = multiply(f, lambda k: 1.0 / (a + k * k))
        back = multiply(g, lambda k: a + k * k)
        assert np.linalg.norm(back.values - f.values) < 1e-11 * np.linalg.norm(f.values)


class TestCoulomb:
    def test_zero_density(self):
        v = potential(zero_field(GRID))
        assert np.allclose(v, 0.0)

    def test_uniform_ball_exterior(self):
        R, M = 4.0, 2.5
        rho0 = M / (4.0 / 3.0 * np.pi * R**3)
        f = Field(GRID, np.sqrt(np.where(GRID.r <= R, rho0, 0.0)).astype(complex))
        v = potential(f)
        sel = GRID.r >= R + 4 * GRID.dr
        err = np.max(np.abs(v[sel] - mass(f) / GRID.r[sel])) / (mass(f) / R)
        assert err < 10.0 * (GRID.dr / R) ** 2

    def test_gaussian_against_quadrature_oracle(self):
        # density rho(r) = (2 pi)^{-3/2} e^{-r^2/2}: V = erf(r/sqrt(2))/r
        g = RadialGrid(4096, 32.0)

        def rho(r):
            return (2 * np.pi) ** -1.5 * np.exp(-(r**2) / 2)

        f = field_from_profile(g, lambda r: np.sqrt(rho(r)))
        v = potential(f)
        # independent oracle: adaptive quadrature of the two Newton integrals
        for rr in (0.5, 1.0, 2.0, 5.0, 10.0):
            inner = quad(lambda s: rho(s) * s * s, 0, rr)[0]
            outer = quad(lambda s: rho(s) * s, rr, np.inf)[0]
            oracle = 4 * np.pi * (inner / rr + outer)
            j = int(round(rr / g.dr)) - 1
            assert abs(v[j] - oracle) < 1e-6 * oracle
        exact = erf(g.r / np.sqrt(2)) / g.r
        assert np.max(np.abs(v - exact) / exact) < 1e-6

    def test_trapezoid_route_agrees(self):
        # the documented O(dr^2) shell rule is the cross-check of the spectral solve
        g = RadialGrid(8192, 32.0)
        f = gaussian_field(g, 0.8, 1.3)
        vs = potential(f)
        vt = potential(f, newton_shell_potential)
        assert np.max(np.abs(vs - vt)) < 50.0 * g.dr**2 * np.max(vs)

    def test_monotone_beyond_support(self):
        f = gaussian_field(GRID, 1.0, 1.0)
        v = potential(f)
        tail = GRID.r > 10.0
        assert np.all(np.diff(v[tail]) <= 1e-14)

    def test_newton_bound_random_fields(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_smooth_field(GRID, rng)
            v = potential(f)
            slack = mass(f) * (1.0 + 5.0 * GRID.dr / GRID.r_max)
            assert np.max(GRID.r * v) <= slack

    def test_kernel_interaction_matches_quadrature(self):
        # the Parseval form equals the quadrature 4 pi dr sum V rho r^2 of the solved V
        rng = np.random.default_rng(4)
        kern = kernel(GRID, ModelParams())
        for _ in range(10):
            rho = np.abs(random_smooth_field(GRID, rng).values) ** 2
            quadrature = GRID.weight * np.sum(kern.potential(rho) * rho * GRID.r**2)
            assert abs(kern.interaction(rho) - quadrature) < 1e-13 * quadrature


class TestFunctionals:
    def test_mass_zero(self):
        assert mass(zero_field(GRID)) == 0.0

    def test_mass_gaussian_closed_form(self):
        f = gaussian_field(GRID, 1.0, 1.0)  # |f|^2 = e^{-r^2}, integral pi^{3/2}
        assert abs(mass(f) - np.pi**1.5) < 1e-8 * np.pi**1.5

    def test_energy_zero_field(self):
        assert energy(zero_field(GRID), ModelParams(1.0)) == 0.0

    def test_massless_energy_scaling(self):
        g = RadialGrid(8192, 64.0)
        base = 2.0
        f = field_from_profile(g, lambda r: 1.3 * np.exp(-(r**2) / (2 * base**2)))
        e1 = energy(f, ModelParams(0.0))
        for lam in (0.5, 2.0):
            w = base / lam
            flam = field_from_profile(
                g, lambda r: lam**1.5 * 1.3 * np.exp(-(r**2) / (2 * w**2)))
            assert abs(energy(flam, ModelParams(0.0)) - lam * e1) < 1e-6 * abs(lam * e1)

    def test_hs_norm_s0_equals_l2(self):
        rng = np.random.default_rng(5)
        f = random_smooth_field(GRID, rng)
        assert abs(hs_norm(f, 0.0) - np.sqrt(mass(f))) < 1e-12 * np.sqrt(mass(f))

    def test_hs_norm_single_mode(self):
        f = sine_mode(GRID, 3)
        k3 = GRID.frequencies[2]
        expected = (1 + k3**2) ** 0.25 * np.sqrt(mass(f))
        assert abs(hs_norm(f, 0.5) - expected) < 1e-10 * expected

    def test_hs_norm_monotone_in_s(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_smooth_field(GRID, rng)
            lo = hs_norm(f, -0.5)
            mid = np.sqrt(mass(f))
            hi = hs_norm(f, 0.5)
            assert lo <= mid * (1 + 1e-12) <= hi * (1 + 1e-12)

    def test_homogeneous_half_sq_matches_symbol(self):
        f = sine_mode(GRID, 4)
        k4 = GRID.frequencies[3]
        kern = kernel(GRID, ModelParams())
        assert kern.homogeneous_half_sq(f.values) == pytest.approx(k4 * mass(f), rel=1e-10)

    def test_boundary_mass_of_resolved_field(self):
        # the mass in the zone r >= 0.9 r_max, which records.csv reports
        f = gaussian_field(GRID, 1.0, 2.0)
        edge = kernel(GRID, ModelParams()).mass(abs2(f.values), GRID.boundary_radius)
        assert edge < 1e-10 * mass(f)

    def test_energy_is_the_record_energy(self):
        # one formula: the energy of a Field is the energy column of its record row, bit for bit
        grid, p = RadialGrid(16384, 16.0), ModelParams(1.0)
        u = gaussian_field(grid, 1.0, 0.5)
        f = Field(grid, u.values * np.sqrt(1.2 * 2.69239443233116 / mass(u)))
        assert energy(f, p) == trajectory_from_snapshots([f], [0.0], p).records["energy"][0]


class TestKernelMass:
    """RadialKernel.mass(rho, radius), the mass of rho on r >= radius."""

    def test_radius_selects_the_samples_at_or_beyond_it(self):
        kern = kernel(GRID, ModelParams())
        rho = abs2(random_smooth_field(GRID, np.random.default_rng(11)).values)
        assert kern.mass(rho) == dot(rho, kern.mass_weight)
        j = 1000
        spike = np.zeros(GRID.n_points)
        spike[j] = 1.0
        assert kern.mass(spike, GRID.r[j]) == kern.mass_weight[j]  # a grid radius keeps its sample
        assert kern.mass(spike, np.nextafter(GRID.r[j], np.inf)) == 0.0
        assert kern.mass(rho, 1.5 * GRID.r_max) == 0.0

    def test_boundary_zone_is_the_mask_sum(self):
        # the boundary mass of records.csv, bit for bit as the sum over the mask r >= 0.9 r_max
        grid = RadialGrid(16384, 16.0)
        kern = kernel(grid, ModelParams(1.0))
        mask = grid.r >= 0.9 * grid.r_max
        rng = np.random.default_rng(12)
        for _ in range(300):
            decay, k, phase = rng.uniform(0.2, 4.0), rng.uniform(0.0, 20.0), rng.uniform(0, np.pi)
            rho = np.exp(-grid.r / decay) * (1.0 + 0.5 * np.cos(k * grid.r + phase))
            assert kern.mass(rho, grid.boundary_radius) == dot(rho[mask], kern.mass_weight[mask])


# prints the record row of an n = 16384 state and dot at lengths past two 10,000-entry blocks
THREAD_PROBE = """
import numpy as np
from bosonstar.spectral import ModelParams, RadialGrid, dot, sech_field
from oracles import trajectory_from_snapshots
f = sech_field(RadialGrid(16384, 16.0))
records = trajectory_from_snapshots([f], [0.0], ModelParams(1.0)).records
print(*(float(records[c][0]).hex() for c in sorted(records)))
rng = np.random.default_rng(7)
print(*(dot(rng.standard_normal(n), rng.standard_normal(n)).hex() for n in (20001, 30000)))
"""


@pytest.fixture(scope="module")
def thread_probe():
    """THREAD_PROBE's output lines with OpenBLAS pinned to 1 thread and to 2 threads."""
    path = os.pathsep.join([str(pathlib.Path(bosonstar.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent)])  # the package and oracles
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        out[threads] = run.stdout.splitlines()
    return out


class TestDot:
    def test_is_np_dot_up_to_one_block(self):
        rng = np.random.default_rng(8)
        for n in (1, 9999, 10000):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert dot(a, b) == float(np.dot(a, b))

    def test_splits_longer_arrays_in_halves(self):
        rng = np.random.default_rng(9)
        for n in (10001, 16383, 30000):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            h = (n + 1) // 2
            assert dot(a, b) == dot(a[:h], b[:h]) + dot(a[h:], b[h:])
            assert abs(dot(a, b) - np.dot(a, b)) <= 1e-14 * n * np.dot(np.abs(a), np.abs(b))

    def test_record_row_is_thread_independent(self, thread_probe):
        assert thread_probe["1"][0] == thread_probe["2"][0]

    def test_dot_is_thread_independent(self, thread_probe):
        assert thread_probe["1"][1] == thread_probe["2"][1]


def fresh_python(code: str, **env) -> list:
    """The output lines of `code` run in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS, gains env and finds the package."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True, env=dict(
                             base, PYTHONPATH=str(pathlib.Path(bosonstar.__file__).parents[1]),
                             **env))
    return run.stdout.splitlines()


# the thread count of the process, the package's view of it and the variable itself
BLAS_THREAD_PROBE = """
import os
import bosonstar.spectral as sp
print(len(os.listdir("/proc/self/task")), sp.ONE_BLAS_THREAD,
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestBlasThreadSetting:
    """Imported before numpy, the package gives OpenBLAS one thread unless a count is set."""

    def test_importing_the_package_gives_one_thread(self):
        assert fresh_python("import bosonstar\n" + BLAS_THREAD_PROBE) == ["1 True 1"]

    def test_an_explicit_count_is_kept(self):
        assert fresh_python(BLAS_THREAD_PROBE, OPENBLAS_NUM_THREADS="2")[0].split()[1:] == [
            "False", "2"]

    def test_an_importer_that_loaded_numpy_first_is_left_alone(self):
        assert fresh_python("import numpy\n" + BLAS_THREAD_PROBE)[0].split()[1:] == [
            "False", "None"]


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        f = random_smooth_field(RadialGrid(128, 16.0), rng)
        g = field_from_json(field_to_json(f))
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_field_length_validated(self):
        with pytest.raises(ValueError):
            Field(GRID, np.zeros(7))
        with pytest.raises(ValueError):
            SpectralField(GRID, np.zeros(7))

    def test_field_copies_what_another_handle_can_write(self):
        src = np.linspace(0.0, 1.0, GRID.n_points).astype(np.complex128)
        f = Field(GRID, src)
        src[:] = 7.0
        assert f.values[0] == 0.0 and not f.values.flags.writeable
        # a read-only row that views no other array is kept, as a SnapshotRows row is
        row = np.ones(GRID.n_points, dtype=np.complex128)
        row.setflags(write=False)
        assert Field(GRID, row).values is row
        # a read-only view is copied, even of a read-only array, and the copy is read-only
        rows = np.ones((2, GRID.n_points), dtype=np.complex128)
        rows.setflags(write=False)
        for view in (src[:], rows[1]):
            view.setflags(write=False)
            copied = Field(GRID, view).values
            assert copied.base is None and not copied.flags.writeable
            assert not np.shares_memory(copied, view)
        coefficients = SpectralField(GRID, src).coefficients
        assert not np.shares_memory(coefficients, src) and not coefficients.flags.writeable
