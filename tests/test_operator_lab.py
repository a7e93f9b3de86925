import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import beta, roots_jacobi

import bosonstar

from bosonstar.config import Tolerances
from bosonstar.operator_lab import (
    ONE_BLAS_THREAD,
    SUITES,
    MaxProfilesExceeded,
    NotAPartition,
    PeriodicGrid1D,
    SequenceFamily,
    build_fractional,
    commutator_norm,
    highest_local_mass,
    hs_norm_1d,
    ims_defect,
    l2_norm,
    local_mass_sup,
    localization_defect,
    operator_norm_matrix,
    partition_pair,
    profile_decompose,
    random_smooth_chi,
    run_suite,
    spectral_gradient,
    subcritical_check,
    tanh_bump,
)
from bosonstar.operator_lab import (_T_NODES, _composite_t_nodes, _jacobi01, _l_chi,
                                    _symbol_operator, band_projector, bandwidth_cells)
from oracles import (fractional_via_quadrature, gather_circulant, hermiticity_defect,
                     reference_run_suite, scalar_power_quadrature)

GRID = PeriodicGrid1D(128, 32.0)


def dense_localization(grid, s, chi, n_nodes=_T_NODES):
    """Reference L_chi from dense resolvents (A + t)^{-1}, at the nodes of the same t-rule."""
    A = build_fractional(grid, 1.0, 1.0)
    X = np.diag(chi)
    eye = np.eye(grid.n)
    C = X @ A - A @ X
    acc = np.zeros_like(A)
    for t, w in zip(*_composite_t_nodes(s, 3.0, 4.0 * operator_norm_matrix(A), n_nodes)):
        R = np.linalg.inv(A + t * eye)
        acc += w * (R @ C @ R @ C.T @ R)
    return np.sin(np.pi * s) / np.pi * acc


def periodic_bump(grid, center, width, amp=1.0):
    d = np.abs(grid.x - center)
    d = np.minimum(d, grid.length - d)
    return amp * np.exp(-(d**2) / (2.0 * width**2))


class TestBuildFractional:
    def test_s1_a0_matches_spectral_laplacian(self):
        op = build_fractional(GRID, 1.0, 0.0)
        ref = np.fft.ifft((GRID.k**2)[:, None] * np.fft.fft(np.eye(GRID.n), axis=0), axis=0)
        assert np.max(np.abs(op - ref)) < 1e-12 * operator_norm_matrix(op)

    def test_hermiticity(self):
        for s, a in ((0.3, 1.0), (0.5, 0.0), (1.0, 2.0)):
            assert hermiticity_defect(build_fractional(GRID, s, a)) < 1e-12

    def test_scalar_integral_identity(self):
        # (sin pi s / pi) Int_0^inf t^{s-1}/(1+t) dt = 1
        for s in (0.25, 0.5, 0.75):
            val = scalar_power_quadrature(np.array([1.0]), s)[0]
            assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.99])
    def test_node_rule_closed_forms(self, s):
        # Int_0^inf t^sigma (1+t)^-p dt = B(sigma+1, p-sigma-1), for decays p = 1, 2, 3,
        # at the node count localization_defect ships, up to the t_hi of an n = 384 suite
        for t_hi in (4.0, 4.0 * (1.0 + np.max(PeriodicGrid1D(384, 32.0).k ** 2))):
            for sigma, p in ((s - 1.0, 1.0), (s, 2.0), (s, 3.0)):
                t, w = _composite_t_nodes(sigma, p, t_hi, _T_NODES)
                exact = beta(sigma + 1.0, p - sigma - 1.0)
                assert abs(np.sum(w * (1.0 + t) ** -p) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("b", [0.01, 0.3, 0.5, 0.7, 0.99, 1.0])
    def test_jacobi_rule_golub_welsch(self, b):
        # the 16-node rule integrates y^(j + b) exactly for j < 32, and its nodes
        # are the Gauss-Jacobi nodes of scipy's roots_jacobi, mapped to [0, 1]
        y, w = _jacobi01(_T_NODES, b)
        for j in range(2 * _T_NODES):
            exact = 1.0 / (j + b + 1.0)
            assert abs(np.sum(w * y**j) - exact) <= 1e-13 * exact
        x, _ = roots_jacobi(_T_NODES, 0.0, b)
        assert np.max(np.abs(y - 0.5 * (1.0 + x))) <= 1e-14

    def test_scalar_quadrature_across_spectrum(self):
        lam = 1.0 + GRID.k**2
        for s in (0.25, 0.5, 0.75):
            vals = scalar_power_quadrature(lam, s)
            assert np.max(np.abs(vals - lam**s) / lam**s) < 1e-10

    def test_resolvent_quadrature_reconstruction(self):
        exact = build_fractional(GRID, 0.5, 1.0)
        viaq = fractional_via_quadrature(GRID, 0.5, 1.0)
        err = operator_norm_matrix(exact - viaq) / operator_norm_matrix(exact)
        assert err < 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_fractional(GRID, 1.5, 1.0)
        with pytest.raises(ValueError):
            build_fractional(GRID, 0.5, -1.0)
        with pytest.raises(ValueError):
            PeriodicGrid1D(127, 32.0)


class TestCommutator:
    def test_constant_chi_commutes(self):
        assert commutator_norm(GRID, 0.5, 1.0, np.full(GRID.n, 0.7)) < 1e-12

    def test_dilation_family_scaling(self):
        g = PeriodicGrid1D(768, 384.0)
        prods = []
        for R in (1.0, 2.0, 4.0, 8.0, 16.0):
            chi = tanh_bump(g, 3.0 * R, R)
            prods.append(R * commutator_norm(g, 0.5, 1.0, chi))
        prods = np.array(prods)
        gmean = np.exp(np.mean(np.log(prods)))
        assert max(prods.max() / gmean, gmean / prods.min()) <= 2.0

    def test_calibrated_constant_covers_s_half_and_one(self):
        rng = np.random.default_rng(11)
        c_cal = 1.5
        for _ in range(20):
            chi = random_smooth_chi(GRID, rng)
            gi = np.max(np.abs(spectral_gradient(GRID, chi)))
            for s in (0.5, 1.0):
                assert commutator_norm(GRID, s, 1.0, chi) <= c_cal * gi

    def test_real_svd_matches_complex(self):
        rng = np.random.default_rng(12)
        for s in (0.5, 1.0):
            chi = random_smooth_chi(GRID, rng)
            op = build_fractional(GRID, s / 2.0, 1.0)
            X = np.diag(chi).astype(np.complex128)
            ref = np.linalg.norm(op @ X - X @ op, 2)
            assert abs(commutator_norm(GRID, s, 1.0, chi) - ref) <= 1e-13 * ref

    def test_operator_norm_matches_svd(self):
        rng = np.random.default_rng(13)
        chi = random_smooth_chi(GRID, rng)
        op = build_fractional(GRID, 0.25, 1.0)
        general = rng.normal(size=(GRID.n, GRID.n))
        for m in (general,                                    # real, non-symmetric
                  chi[:, None] * op - op * chi[None, :],      # [chi, A], antisymmetric
                  op,                                         # symmetric
                  general + 1j * rng.normal(size=general.shape)):
            ref = np.linalg.norm(m, 2)
            assert abs(operator_norm_matrix(m) - ref) <= 1e-13 * ref
        assert operator_norm_matrix(np.zeros((GRID.n, GRID.n))) == 0.0


# runs the whole operator-check suite and reports whether scipy.linalg got imported
LINALG_PROBE = """
import sys
from bosonstar.config import Tolerances
from bosonstar.operator_lab import PeriodicGrid1D, run_suite
run_suite("all", PeriodicGrid1D(128, 32.0), 0.5, Tolerances(), 0)
print("scipy.linalg" in sys.modules)
"""


class TestLocalization:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_spectrum_bounds_random_chi(self, s):
        rng = np.random.default_rng(21)
        for _ in range(4):
            chi = random_smooth_chi(GRID, rng)
            out = localization_defect(GRID, s, chi)
            assert out["eig_min"] >= -1e-8
            assert out["eig_max"] <= out["upper_bound"] * (1 + 1e-6)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_double_commutator_bound(self, s):
        rng = np.random.default_rng(22)
        chi = random_smooth_chi(GRID, rng)
        out = localization_defect(GRID, s, chi)
        assert out["double_commutator_norm"] <= out["double_commutator_bound"]

    def test_eigenbasis_matches_dense_resolvents(self):
        g = PeriodicGrid1D(32, 16.0)
        chi = random_smooth_chi(g, np.random.default_rng(5))
        ref = dense_localization(g, 0.5, chi)
        assert np.max(np.abs(_l_chi(g, 0.5, chi) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def assert_matches_dense(g, s, chi):
        ref = dense_localization(g, s, chi)
        err = np.max(np.abs(_l_chi(g, s, chi) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, b", [(32, 15), (64, 31)])
    def test_full_band_chi_matches_dense_resolvents(self, n, b):
        # every mode but the (exactly zero) Nyquist one is above rounding, so
        # most offsets of the band sum wrap mod n
        g = PeriodicGrid1D(n, 16.0)
        chi = tanh_bump(g, 4.0, 0.5)
        assert bandwidth_cells(g, chi, n * np.finfo(np.float64).eps) == b
        self.assert_matches_dense(g, 0.5, chi)

    def test_nyquist_chi_matches_dense_resolvents(self):
        g = PeriodicGrid1D(64, 16.0)
        chi = random_smooth_chi(g, np.random.default_rng(6)) + 0.1 * np.cos(np.pi * np.arange(g.n))
        assert bandwidth_cells(g, chi, g.n * np.finfo(np.float64).eps) == g.n // 2
        self.assert_matches_dense(g, 0.3, chi)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.99])
    def test_suite_chi_matches_dense_resolvents(self, s):
        self.assert_matches_dense(GRID, s, random_smooth_chi(GRID, np.random.default_rng(8)))

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.99])
    def test_node_rule_converged(self, s):
        # the shipped node count agrees with a 48-node rule; 12 nodes miss by ~1e-12
        g = PeriodicGrid1D(64, 16.0)
        chi = random_smooth_chi(g, np.random.default_rng(7))
        lchi = _l_chi(g, s, chi)
        ref = dense_localization(g, s, chi, n_nodes=48)
        assert np.max(np.abs(lchi - ref)) <= 1e-13 * np.max(np.abs(lchi))

    @pytest.mark.parametrize("run, bound", [
        (lambda g, chi: localization_defect(g, 0.5, chi), 3.2),
        (lambda g, chi: run_suite("all", g, 0.5, Tolerances(), 0), 3.2),
    ], ids=["lone_call", "suite"])
    def test_working_set(self, run, bound):
        # peaks in n x n float64s, plus band arrays and vectors; numpy's arrays
        # are traced, LAPACK's workspace is not.  The lone call peaks at the
        # double-commutator phase's three arrays (L_chi's build reaches 2.6):
        # an L_chi held into that phase would exceed 3.2.  The suite's
        # commutator, localization and ims phases each peak at three arrays
        # (3.14-3.16 alone): an L_chi or a fourth array kept through any of
        # them would exceed 3.2.
        g = PeriodicGrid1D(256, 32.0)
        chi = random_smooth_chi(g, np.random.default_rng(3))
        run(GRID, chi[::2])  # the first call's lazy imports stay untraced
        tracemalloc.start()
        try:
            run(g, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.n**2 * 8

    def test_suite_never_imports_scipy_linalg(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(bosonstar.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", LINALG_PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.split() == ["False"]

    def test_constant_chi_gives_zero(self):
        out = localization_defect(GRID, 0.5, np.full(GRID.n, 0.4))
        assert abs(out["eig_min"]) < 1e-10 and abs(out["eig_max"]) < 1e-10

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            localization_defect(GRID, 1.0, tanh_bump(GRID, 8.0, 1.5))


class TestIMS:
    def test_trivial_partition(self):
        assert ims_defect(GRID, 0.5, [np.ones(GRID.n)]) == pytest.approx(0.0, abs=1e-12)

    def test_two_element_partition_nonnegative(self):
        part = partition_pair(GRID, 8.0, 1.5)
        assert np.max(np.abs(part[0] ** 2 + part[1] ** 2 - 1.0)) < 1e-14
        assert ims_defect(GRID, 0.5, part) >= -1e-8

    def test_not_a_partition(self):
        with pytest.raises(NotAPartition):
            ims_defect(GRID, 0.5, [0.9 * np.ones(GRID.n)])

    def test_classical_limit_identity(self):
        # s -> 1: (-Delta) - sum chi (-Delta) chi + sum |grad chi|^2 = 0.  On a
        # periodic grid the identity is exact on the alias-free band (pointwise
        # multiplication wraps the top modes), so it is asserted there, with an
        # exactly band-limited cos/sin partition.
        g = PeriodicGrid1D(512, 64.0)
        m = 3
        phi = 2 * np.pi * m * g.x / g.length
        part = [np.cos(phi), np.sin(phi)]
        assert np.max(np.abs(part[0] ** 2 + part[1] ** 2 - 1.0)) < 1e-14
        lap = build_fractional(g, 1.0, 0.0)
        acc = lap.copy()
        grad_sq = np.zeros(g.n)
        for chi in part:
            acc -= np.diag(chi) @ lap @ np.diag(chi)
            dchi = spectral_gradient(g, chi)
            grad_sq += dchi * dchi
        defect = acc + np.diag(grad_sq)
        proj = band_projector(g, 2 * m + 1)
        assert operator_norm_matrix(proj @ defect @ proj) < 1e-10 * operator_norm_matrix(lap)


class TestSuiteRecords:
    def test_a_record_states_the_order_it_ran_at(self):
        # localization and ims need s < 1: at s = 1 they run, and say so, at 0.99
        records = run_suite("all", PeriodicGrid1D(64), 1.0, Tolerances(), 0)
        below_one = {"localization_spectrum_low", "localization_spectrum_high",
                     "double_commutator", "ims_defect"}
        orders = {r.check: r.params["s"] for r in records if "s" in r.params}
        assert orders == {"commutator_norm": 1.0, "subcritical_ratio": 1.0,
                          **dict.fromkeys(below_one, 0.99)}


def report(records) -> list:
    """The report.json text of each record, as operator-check writes them."""
    return [json.dumps(r.to_dict()) for r in records]


# in a process that loads numpy through bosonstar, so that OpenBLAS runs one thread: for
# "all" and each suite on three seeds, whether run_suite's report is the serial oracle's and
# how many forks it made; then, for a failure in the worker and one in the caller, what was
# raised, the forks, whether the worker is reaped and whether the CPU mask is restored
SUITE_WORKER_PROBE = """
import json, os
import bosonstar.operator_lab as lab
from bosonstar.config import Tolerances
from oracles import reference_run_suite

fork, forks = os.fork, []
def counted():
    forks.append(os.getpid())
    return fork()
os.fork = counted
mask, tol, out = os.sched_getaffinity(0), Tolerances(), {"one_thread": lab.ONE_BLAS_THREAD}
def report(records):
    return [json.dumps(r.to_dict()) for r in records]
for n, seed in ((128, 0), (128, 11), (384, 7)):
    grid = lab.PeriodicGrid1D(n)
    for suite in ("all", *lab.SUITES):
        forks.clear()
        got = report(lab.run_suite(suite, grid, 0.5, tol, seed))
        out[f"{n} {seed} {suite}"] = [
            got == report(reference_run_suite(suite, grid, 0.5, tol, seed)), len(forks)]
for name, exc in (("commutator_norm", ZeroDivisionError("worker probe")),
                  ("ims_defect", KeyError("caller probe"))):
    def raising(*args, exc=exc):
        raise exc
    kept = getattr(lab, name)
    setattr(lab, name, raising)
    forks.clear()
    try:
        lab.run_suite("all", lab.PeriodicGrid1D(64), 0.5, tol, 0)
        raised = None
    except Exception as caught:
        raised = [type(caught).__name__, str(caught)]
    finally:
        setattr(lab, name, kept)
    try:
        os.waitpid(-1, os.WNOHANG)
        reaped = False
    except ChildProcessError:
        reaped = True
    out[name] = [raised, len(forks), reaped, os.sched_getaffinity(0) == mask]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def suite_worker_probe() -> dict:
    """SUITE_WORKER_PROBE's output, from a fresh process without OPENBLAS_NUM_THREADS."""
    path = os.pathsep.join([str(pathlib.Path(bosonstar.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent)])  # the package and oracles
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    run = subprocess.run([sys.executable, "-c", SUITE_WORKER_PROBE],
                         env=dict(env, PYTHONPATH=path), capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
class TestSuiteWorker:
    """With one OpenBLAS thread, run_suite runs the commutator suite in a forked worker
    beside the others; the serial body of oracles.reference_run_suite is the reference its
    report must match byte for byte."""

    @pytest.mark.parametrize("key", [f"{n} {seed} {suite}" for n, seed in
                                     ((128, 0), (128, 11), (384, 7)) for suite in ("all", *SUITES)])
    def test_matches_the_serial_reference(self, suite_worker_probe, key):
        assert suite_worker_probe["one_thread"] is True
        # "all" forks once; a single suite runs here and forks nothing
        assert suite_worker_probe[key] == [True, 1 if key.endswith(" all") else 0]

    @pytest.mark.parametrize("patched, raised", [
        ("commutator_norm", ["ZeroDivisionError", "worker probe"]),
        ("ims_defect", ["KeyError", "'caller probe'"]),
    ], ids=["worker_raises", "caller_raises"])
    def test_a_failure_on_either_side_reaps_the_worker(self, suite_worker_probe, patched,
                                                       raised):
        # raised here with its type and message, after one fork, with the worker reaped
        # and the caller's CPU mask restored
        assert suite_worker_probe[patched] == [raised, 1, True, True]

    def test_a_threaded_process_forks_nothing(self, monkeypatch):
        # this test process loaded numpy before bosonstar, so OpenBLAS kept its pool, and a
        # worker's threaded BLAS would crawl on its one CPU
        calls, fork = [], os.fork

        def counted():
            calls.append(os.getpid())
            return fork()
        monkeypatch.setattr(os, "fork", counted)
        assert ONE_BLAS_THREAD is False
        got = run_suite("all", GRID, 0.5, Tolerances(), 3)
        assert calls == []
        assert report(got) == report(reference_run_suite("all", GRID, 0.5, Tolerances(), 3))


class TestSequenceFamilies:
    def test_highest_local_mass_translation_invariant(self):
        members = [periodic_bump(GRID, 8.0 + 1.5 * n, 1.0) for n in range(8)]
        fam = SequenceFamily(members)
        m_all = highest_local_mass(GRID, fam, 6.0)
        assert m_all == pytest.approx(l2_norm(GRID, members[0]) ** 2, rel=1e-6)

    def test_spreading_family_vanishes(self):
        g = PeriodicGrid1D(1024, 256.0)
        members = [periodic_bump(g, 128.0, 2.0 * n, 1.0 / np.sqrt(n)) for n in range(1, 9)]
        vals = [highest_local_mass(g, SequenceFamily([u]), 4.0) for u in members]
        assert np.all(np.diff(vals) < 0)

    def test_two_bump_family_reports_heavier(self):
        members = [periodic_bump(GRID, 8.0, 0.8, 1.0) + periodic_bump(GRID, 24.0, 0.8, 0.5)
                   for _ in range(4)]
        fam = SequenceFamily(members)
        m1 = l2_norm(GRID, periodic_bump(GRID, 8.0, 0.8, 1.0)) ** 2
        assert highest_local_mass(GRID, fam, 4.0) == pytest.approx(m1, rel=1e-3)

    def test_nonfinite_members_rejected(self):
        with pytest.raises(ValueError):
            SequenceFamily([np.array([np.nan] * GRID.n)])


class TestSubcritical:
    def make_corpus(self):
        g = PeriodicGrid1D(1024, 256.0)
        x = g.x

        def b(c, w, a):
            d = np.abs(x - c)
            d = np.minimum(d, g.length - d)
            return a * np.exp(-(d**2) / (2 * w * w))

        corpus = {
            "fixed": SequenceFamily([b(128.0, 2.0, 1.0)] * 8),
            "translated": SequenceFamily([b(100.0 + 6.0 * n, 2.0, 1.0) for n in range(8)]),
            "spreading": SequenceFamily(
                [b(128.0, w, 1.0 / np.sqrt(w / 2.0)) for w in (2.0, 3.0, 4.0, 6.0)]),
            "two_bump": SequenceFamily(
                [b(128.0 - 6.0 * n, 2.0, 1.0) + b(128.0 + 6.0 * n, 2.0, 0.7)
                 for n in range(2, 10)]),
            "modulated": SequenceFamily(
                [b(128.0, 2.0, 1.0) * np.cos(0.3 * x) for _ in range(8)]),
        }
        return g, corpus

    def test_ratio_bounded_and_stable(self):
        g, corpus = self.make_corpus()
        ratios = {}
        for name, fam in corpus.items():
            out = subcritical_check(g, fam, 0.5, 8.0, c_cal=0.6)
            assert out["pass"], (name, out)
            ratios[name] = out["ratio"]
        vals = np.array(list(ratios.values()))
        assert vals.max() / vals.min() <= 3.0

    def test_ratio_translation_invariant(self):
        g, corpus = self.make_corpus()
        fam = corpus["fixed"]
        rolled = SequenceFamily([np.roll(u, 150) for u in fam.members])
        r1 = subcritical_check(g, fam, 0.5, 8.0, 0.6)["ratio"]
        r2 = subcritical_check(g, rolled, 0.5, 8.0, 0.6)["ratio"]
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_vanishing_family_lp_to_zero(self):
        # mass-preserving spreading drives every subcritical Lp norm to zero
        g = PeriodicGrid1D(1024, 256.0)
        x = g.x

        def b(c, w, a):
            d = np.abs(x - c)
            d = np.minimum(d, g.length - d)
            return a * np.exp(-(d**2) / (2 * w * w))

        widths = (1.0, 2.0, 4.0, 8.0, 16.0)
        fam = SequenceFamily([b(128.0, w, 1.0 / np.sqrt(w)) for w in widths])
        p = 2.0 + 4.0 * 0.5
        lps = [g.dx * np.sum(np.abs(u) ** p) for u in fam.members]
        assert np.all(np.diff(lps) < 0)
        assert lps[-1] < 0.1 * lps[0]
        masses = [l2_norm(g, u) ** 2 for u in fam.members]
        assert np.allclose(masses, masses[0], rtol=1e-8)


class TestProfileDecomposition:
    def test_single_translated_bump(self):
        g = PeriodicGrid1D(2048, 1024.0)
        members = [periodic_bump(g, 100.0 + 10.0 * n, 1.0) for n in range(12)]
        m0 = l2_norm(g, members[0]) ** 2
        out = profile_decompose(g, SequenceFamily(members), 0.5, eps=1e-6 * m0)
        assert len(out["profiles"]) == 1
        assert out["profiles"][0]["mass"] >= (1 - 1e-6) * m0
        assert highest_local_mass(g, out["remainder"], 16.0) <= 1e-6 * m0

    def test_two_bumps_masses_and_order(self):
        g = PeriodicGrid1D(2048, 1024.0)
        mm = l2_norm(g, periodic_bump(g, 0.0, 1.0)) ** 2
        members = [
            (periodic_bump(g, 512.0 - 5.0 * n, 1.0) +
             periodic_bump(g, 512.0 + 5.0 * n, 1.0, 1.0 / np.sqrt(2))) / np.sqrt(mm)
            for n in range(2, 26)]
        out = profile_decompose(g, SequenceFamily(members), 0.5, eps=1e-3)
        masses = [p["mass"] for p in out["profiles"]]
        assert len(masses) == 2
        assert abs(masses[0] - 1.0) < 0.05
        assert abs(masses[1] - 0.5) < 0.05
        assert masses[0] > masses[1]  # extraction in decreasing-mass order
        sep = abs(out["profiles"][0]["centers"][-1] - out["profiles"][1]["centers"][-1])
        assert sep >= 5.0 * out["radii"][-1]

    def test_mass_bookkeeping(self):
        g = PeriodicGrid1D(2048, 1024.0)
        members = [periodic_bump(g, 300.0 + 8.0 * n, 1.0) +
                   periodic_bump(g, 700.0 + 8.0 * n, 2.0, 0.4) for n in range(10)]
        fam = SequenceFamily(members)
        out = profile_decompose(g, fam, 0.5, eps=1e-4)
        assert out["profile_mass_sum"] <= out["mass_budget"] * (1 + 1e-6)

    def test_profile_cap(self):
        # sub-cell round radii extract one spike per round, so more than 32
        # separated spikes exhaust the round budget
        g = PeriodicGrid1D(512, 256.0)
        u = np.zeros(g.n)
        u[:: g.n // 40][:40] = 1.0
        members = [u.copy() for _ in range(3)]
        with pytest.raises(MaxProfilesExceeded):
            profile_decompose(g, SequenceFamily(members), 0.5, eps=1e-6,
                              r0=g.dx * 2.0**-40)

    def test_eps_must_be_positive(self):
        g = PeriodicGrid1D(512, 256.0)
        with pytest.raises(ValueError):
            profile_decompose(g, SequenceFamily([np.ones(g.n)]), 0.5, eps=0.0)

    def test_energy_split_for_disjoint_supports(self):
        # quadratic-form additivity once bumps are far apart
        g = PeriodicGrid1D(512, 256.0)
        a = periodic_bump(g, 64.0, 1.5)
        b = periodic_bump(g, 192.0, 1.5, 0.7)
        u = a + b
        op = build_fractional(g, 0.5, 1.0)
        dx = g.dx

        def form(v):
            return float(dx * np.real(v @ (op @ v)))

        total = form(u)
        split = form(a) + form(b)
        assert abs(total - split) < 0.01 * total


class TestDenseOperatorPlumbing:
    @pytest.mark.parametrize("n", [4, 6, 128, 384])
    def test_strided_circulant_matches_gather(self, n):
        g = PeriodicGrid1D(n, 32.0)
        band = np.where(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 2 - 1, 1.0, 0.0)
        for symbol in ((1.0 + g.k**2) ** 0.25, band):
            assert np.array_equal(_symbol_operator(g, symbol), gather_circulant(g, symbol))

    def test_operators_are_real_symmetric(self):
        for op in (build_fractional(GRID, 0.5, 1.0), band_projector(GRID, 3)):
            assert op.dtype == np.float64
            assert np.array_equal(op, op.T)

    def test_hs_norm_parseval(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=GRID.n)
        assert hs_norm_1d(GRID, u, 0.0) == pytest.approx(l2_norm(GRID, u), rel=1e-12)

    def test_local_mass_sup_full_window(self):
        u = periodic_bump(GRID, 10.0, 1.0)
        _, val = local_mass_sup(GRID, u, GRID.length)
        assert val == pytest.approx(l2_norm(GRID, u) ** 2, rel=1e-12)
