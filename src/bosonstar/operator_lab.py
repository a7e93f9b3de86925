"""Dense-matrix laboratory for fractional-operator estimates on a 1D circle.

Everything the concentration-compactness machinery needs from the operators
(1-Delta)^s and (-Delta)^s is dimension-generic, so it is verified here in
d = 1 where n x n matrices make operator norms exactly computable:
commutator bounds against ||grad chi||_inf, the localization formula and the
nonnegative defect L_chi, the fractional IMS inequality, the subcritical
estimate through the highest local mass, and the constructive splitting of
bounded sequences into receding bumps.

Operators are plain real symmetric float64 arrays: the circulant of one
inverse FFT of their real, even Fourier symbol, copied out of one strided view
of that column, so building one allocates a single n x n array.  Every
integral over t in (0, inf) uses one node rule, whose Gauss-Jacobi ends carry
the fractional weight at 0 and the decay at infinity exactly.  Resolvent
quadratures run in the eigenbasis of A = 1 - Delta from one `eigh`, where
every (A + t)^{-1} is a diagonal divide; multiplication by chi is applied
elementwise, never as a dense diagonal matrix.  The eigenbasis is released
before the projector phase, so the working set stays near five n x n arrays;
memory grows as n^2.  `run_suite` runs the checks as the `operator-check`
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import roots_jacobi

from .diagnostics import CheckRecord

__all__ = [
    "PeriodicGrid1D",
    "SequenceFamily",
    "NotAPartition",
    "MaxProfilesExceeded",
    "build_fractional",
    "spectral_gradient",
    "operator_norm_matrix",
    "commutator_norm",
    "localization_defect",
    "ims_defect",
    "circle_distance",
    "tanh_bump",
    "partition_pair",
    "random_smooth_chi",
    "l2_norm",
    "hs_norm_1d",
    "local_mass_sup",
    "highest_local_mass",
    "subcritical_check",
    "profile_decompose",
    "SUITES",
    "run_suite",
]

MAX_PROFILES = 32
_T_NODES = 16  # nodes per panel of `_composite_t_nodes` in `localization_defect`
_BAND_REL_TOL = 1e-9  # relative size of the smallest mode `bandwidth_cells` counts
_CHI_MODES = 10  # Fourier modes of `random_smooth_chi`
_CHI_DAMPING = 3.0  # mode m of `random_smooth_chi` carries exp(-(m / damping)^2)


class NotAPartition(ValueError):
    pass


class MaxProfilesExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class PeriodicGrid1D:
    n: int
    length: float

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 4:
            raise ValueError("n must be even and >= 4")
        if not self.length > 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def _symbol_operator(grid: PeriodicGrid1D, symbol: np.ndarray) -> np.ndarray:
    """The circulant with this real, even symbol: m[i, j] = col[(i - j) % n].

    The column is symmetrised first, col[k] and col[-k] averaged, which is
    0.5 (m + m^T) to the bit.  Row i of the circulant is ext[i : i + n]
    reversed, with ext = (col[1:], col), so the matrix is one copy of a
    strided view and its only n x n allocation.
    """
    col = np.fft.ifft(symbol).real
    col = 0.5 * (col + np.roll(col[::-1], 1))
    ext = np.concatenate((col[1:], col))
    return sliding_window_view(ext, grid.n)[:, ::-1].copy()


def build_fractional(grid: PeriodicGrid1D, s: float, a: float = 1.0) -> np.ndarray:
    """Dense matrix of (a - Delta)^s from its diagonal symbol (a + k^2)^s."""
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    if a < 0:
        raise ValueError("a must be nonnegative")
    return _symbol_operator(grid, (a + grid.k**2) ** s)


def band_projector(grid: PeriodicGrid1D, margin_cells: int) -> np.ndarray:
    """Projection onto modes at least margin_cells below the frequency-band edge.

    Pointwise multiplication wraps the top modes of a periodic grid, so
    identities of the continuum operator calculus are represented faithfully
    only on this alias-free band.
    """
    idx = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
    keep = np.where(idx <= grid.n / 2 - margin_cells, 1.0, 0.0)
    return _symbol_operator(grid, keep)


def bandwidth_cells(grid: PeriodicGrid1D, chi: np.ndarray) -> int:
    """Effective bandwidth of chi in grid cells (largest mode above _BAND_REL_TOL)."""
    ch = np.abs(np.fft.fft(np.asarray(chi, dtype=np.float64)))
    ch[0] = 0.0
    idx = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
    keep = ch > _BAND_REL_TOL * max(ch.max(), 1e-300)
    return int(idx[keep].max()) if keep.any() else 0


def spectral_gradient(grid: PeriodicGrid1D, chi: np.ndarray) -> np.ndarray:
    return np.real(np.fft.ifft(1j * grid.k * np.fft.fft(chi)))


def operator_norm_matrix(m: np.ndarray) -> float:
    """Largest singular value of m, real or complex: sqrt(lambda_max(m^* m)).

    One `eigvalsh` of the Hermitian Gram matrix in place of an SVD; the
    clamp at 0 makes an exact zero matrix return 0.0, not NaN.
    """
    return float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))


def _chi_commutator(chi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[diag(chi), m] without forming diag(chi)."""
    out = chi[:, None] * m
    out -= m * chi[None, :]
    return out


def commutator_norm(grid: PeriodicGrid1D, s: float, a: float, chi: np.ndarray) -> float:
    """Operator norm of [(a-Delta)^{s/2}, chi]."""
    op = build_fractional(grid, s / 2.0, a)
    return operator_norm_matrix(_chi_commutator(np.asarray(chi, dtype=np.float64), op))


# --- quadrature of the resolvent integral representation ---------------------

def _jacobi01(n_nodes: int, beta: float):
    """Nodes/weights for Int_0^1 g(y) y^beta dy with g analytic (beta > -1)."""
    x, w = roots_jacobi(n_nodes, 0.0, beta)
    return 0.5 * (1.0 + x), w * 0.5 ** (beta + 1.0)


def _composite_t_nodes(sigma: float, decay: float, t_hi: float, n_nodes: int):
    """Nodes/weights (t_i, W_i) with Int_0^inf h(t) t^sigma dt ~ sum W_i h(t_i),
    for h analytic on (0, inf) that decays like t^-decay.

    The fractional weight is exact on (0, 1] (Gauss-Jacobi) and absorbed into
    the weights on geometrically growing Gauss-Legendre panels [a, 4a] up to
    t_hi.  On the tail, t = t_hi/u turns h(t) t^sigma dt into an analytic
    function times u^(decay - sigma - 2) du, again Gauss-Jacobi.

    For the resolvent integrands h(t) = (lam + t)^-p with lam >= 1, 16 nodes
    per panel are at rounding.  On a panel [a, 4a] with a >= 1 the nearest
    pole, t = -lam <= 0, maps to <= -5/3 on [-1, 1], so the Bernstein
    ellipse has rho >= 3 and the error is about rho^-2n = 3^-32 ~ 5e-16.  The
    head's pole maps to <= -3 and the tail's (u = t_hi/t) to <= -9, both
    farther out.  At 12 nodes the error of L_chi grows to ~1e-12.
    """
    ts, ws = _jacobi01(n_nodes, sigma)
    nodes = [ts]
    weights = [ws]
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    a = 1.0
    while a < t_hi:
        b = min(4.0 * a, t_hi)
        t = 0.5 * (b - a) * gl_x + 0.5 * (a + b)
        nodes.append(t)
        weights.append(0.5 * (b - a) * gl_w * t**sigma)
        a = b
    u, w = _jacobi01(n_nodes, decay - sigma - 2.0)
    nodes.append(t_hi / u)
    weights.append(t_hi ** (sigma + 1.0) * w * u**-decay)
    return np.concatenate(nodes), np.concatenate(weights)


def localization_defect(grid: PeriodicGrid1D, s: float, chi: np.ndarray) -> dict:
    """Assemble the localization defect L_chi of (1-Delta)^s and report its spectrum.

    L_chi is built from its manifestly nonnegative resolvent representation

        L_chi = (sin pi s/pi) Int R_t [-Delta, chi] R_t [chi, -Delta] R_t t^s dt,
        R_t = (t + 1 - Delta)^{-1}.

    The quadrature runs in the eigenbasis of A = 1 - Delta = V diag(lam) V^T,
    where R_t = V diag(d) V^T with d = 1/(lam + t).  With C^ = V^T [chi, A] V
    each node term is B B^T, B = diag(d) C^ diag(d)^{1/2}: one product per
    node, every node term PSD, so 0 <= L_chi <= 4 s ||grad chi||_inf^2 holds
    at the discrete level.  The sum is transformed back once.

    The t-integral covers all of (0, inf) with the nodes of
    `_composite_t_nodes` (t_hi = 4 lam_max, _T_NODES per panel); the
    triple-resolvent integrand decays like t^-3.

    At most five n x n arrays are alive at once: V, C^, the sum and the two
    node buffers.  The eigenbasis is released once L_chi is formed in the
    sum's buffer, before the projector and double-commutator phase.
    """
    if not (0 < s < 1):
        raise ValueError("s must lie in (0, 1)")
    chi = np.asarray(chi, dtype=np.float64)
    grad_inf = float(np.max(np.abs(spectral_gradient(grid, chi))))
    lam, V = np.linalg.eigh(build_fractional(grid, 1.0, 1.0))  # 1 - Delta
    # the node loop's buffers hold the set-up temporaries too, so no freed
    # n x n block is left behind for small allocations to split
    acc = np.multiply(chi[:, None], V)
    B = np.empty_like(V)
    BBt = np.empty_like(V)
    Ch = V.T @ acc
    Ch *= np.subtract(lam, lam[:, None], out=B)  # V^T [chi, -Delta] V, antisymmetric
    acc.fill(0.0)

    t, w = _composite_t_nodes(s, 3.0, 4.0 * lam[-1], _T_NODES)
    for tk, wk in zip(t, w):
        dk = 1.0 / (lam + tk)  # the diagonal of R_t in the eigenbasis
        np.multiply(Ch, np.sqrt(dk), out=B)
        B *= (np.sqrt(wk) * dk)[:, None]
        acc += np.matmul(B, B.T, out=BBt)  # w R C R C^T R
    del Ch, B, BBt
    VA = V @ acc
    lchi = np.matmul(VA, V.T, out=acc)  # V acc V^T, in acc's buffer
    del V, VA
    lchi *= np.sin(np.pi * s) / np.pi
    lchi += lchi.T
    lchi *= 0.5
    evals = np.linalg.eigvalsh(lchi)
    # the continuum double-commutator bound concerns the operator below the
    # aliasing edge; project out the wrapped top band before taking the norm
    double = _chi_commutator(chi, _chi_commutator(chi, build_fractional(grid, s, 1.0)))
    proj = band_projector(grid, 2 * bandwidth_cells(grid, chi) + 1)
    pd = proj @ double
    np.matmul(pd, proj, out=double)
    del pd, proj
    return {
        "l_chi": lchi,
        "eig_min": float(evals[0]),
        "eig_max": float(evals[-1]),
        "upper_bound": 4.0 * s * grad_inf**2,
        "double_commutator_norm": operator_norm_matrix(double),
        "double_commutator_bound": 8.0 * s * grad_inf**2,
    }


def ims_defect(grid: PeriodicGrid1D, s: float, partition: list[np.ndarray]) -> float:
    """lambda_min((1-Delta)^s - sum chi (1-Delta)^s chi) + s ||sum |grad chi|^2||_inf.

    Nonnegative (up to rounding) by the fractional IMS inequality.
    """
    total = sum(np.asarray(chi) ** 2 for chi in partition)
    if np.max(np.abs(total - 1.0)) > 1e-10:
        raise NotAPartition("sum chi_k^2 must equal 1 pointwise to 1e-10")
    As = build_fractional(grid, s, 1.0)
    acc = As.copy()
    grad_sq = np.zeros(grid.n)
    for chi in partition:
        chi = np.asarray(chi, dtype=np.float64)
        acc -= chi[:, None] * As * chi[None, :]
        g = spectral_gradient(grid, chi)
        grad_sq += g * g
    del As
    acc += acc.T
    acc *= 0.5
    lam_min = float(np.linalg.eigvalsh(acc)[0])
    return lam_min + s * float(np.max(grad_sq))


# --- cutoffs on the circle ----------------------------------------------------

def circle_distance(grid: PeriodicGrid1D, center: float) -> np.ndarray:
    d = np.abs(grid.x - center)
    return np.minimum(d, grid.length - d)


def _gaussian_bump(grid: PeriodicGrid1D, center: float, width: float,
                   amplitude: float = 1.0) -> np.ndarray:
    return amplitude * np.exp(-circle_distance(grid, center) ** 2 / (2 * width * width))


def tanh_bump(grid: PeriodicGrid1D, radius: float, width: float) -> np.ndarray:
    """Plateau of half-width `radius` about the circle's midpoint, with tanh
    shoulders of scale `width`.

    Built from the circle distance, so it is exactly periodic; the residual
    kink at the antipode is exponentially small in (L/2 - radius)/width,
    which callers must keep large enough for their tolerance.
    """
    return 0.5 * (1.0 - np.tanh((circle_distance(grid, 0.5 * grid.length) - radius) / width))


def partition_pair(grid: PeriodicGrid1D, radius: float, width: float) -> list[np.ndarray]:
    """Two-element smooth partition with chi1^2 + chi2^2 = 1 exactly."""
    theta = 0.5 * np.pi * tanh_bump(grid, radius, width)
    return [np.sin(theta), np.cos(theta)]


def random_smooth_chi(grid: PeriodicGrid1D, rng: np.random.Generator) -> np.ndarray:
    """Random smooth cutoff with values spanning exactly [0, 1].

    The spectrum is Gaussian-damped so the cutoff stays smooth on the grid
    scale; products with grid functions then respect the continuum operator
    calculus away from the frequency-band edge.
    """
    x = grid.x
    raw = np.zeros(grid.n)
    for m in range(1, _CHI_MODES + 1):
        amp = np.exp(-((m / _CHI_DAMPING) ** 2))
        raw += amp * rng.normal() * np.cos(2 * np.pi * m * x / grid.length)
        raw += amp * rng.normal() * np.sin(2 * np.pi * m * x / grid.length)
    lo, hi = raw.min(), raw.max()
    return (raw - lo) / (hi - lo)


# --- sequence families and profile decomposition ------------------------------

def l2_norm(grid: PeriodicGrid1D, u: np.ndarray) -> float:
    return float(np.sqrt(grid.dx * np.sum(np.abs(u) ** 2)))


def hs_norm_1d(grid: PeriodicGrid1D, u: np.ndarray, s: float) -> float:
    uh = np.fft.fft(u)
    return float(np.sqrt(grid.dx / grid.n * np.sum((1.0 + grid.k**2) ** s * np.abs(uh) ** 2)))


@dataclass(frozen=True)
class SequenceFamily:
    members: list

    def __post_init__(self):
        for u in self.members:
            if not np.all(np.isfinite(u)):
                raise ValueError("family members must be finite grid functions")


def local_mass_sup(grid: PeriodicGrid1D, u: np.ndarray, radius: float) -> tuple[float, float]:
    """(best center, mass) of the circular window |x - y| <= radius."""
    rho = np.abs(u) ** 2 * grid.dx
    half = int(round(radius / grid.dx))
    kernel = np.zeros(grid.n)
    kernel[: half + 1] = 1.0
    kernel[grid.n - half:] = 1.0  # circular indicator of [-radius, radius]
    window = np.real(np.fft.ifft(np.fft.fft(rho) * np.fft.fft(kernel)))
    i0 = int(np.argmax(window))
    # the window top is flat to rounding when the mass sits well inside it;
    # take the midpoint of the plateau run through the argmax (distinct exact
    # ties still resolve toward the smaller coordinate via argmax)
    flat = window >= window[i0] * (1.0 - 1e-12)
    lo = i0
    while flat[(lo - 1) % grid.n] and (i0 - lo) < grid.n:
        lo -= 1
    hi = i0
    while flat[(hi + 1) % grid.n] and (hi - i0) < grid.n:
        hi += 1
    i = ((lo + hi) // 2) % grid.n
    return float(grid.x[i]), float(window[i])


def highest_local_mass(grid: PeriodicGrid1D, family: SequenceFamily, radius: float) -> float:
    """Finite proxy of the highest mass of weak limits: max over the tail half
    of the members of the best windowed mass."""
    tail = family.members[len(family.members) // 2:]
    return max(local_mass_sup(grid, u, radius)[1] for u in tail)


def subcritical_check(grid: PeriodicGrid1D, family: SequenceFamily, s: float,
                      radius: float, c_cal: float) -> dict:
    """Ratio limsup ||u_n||^{2+4s}_{L^{2+4s}} / (M^{2s} limsup ||u_n||_{H^s}^2)
    (d = 1), bounded by the calibrated constant."""
    tail = family.members[len(family.members) // 2:]
    p = 2.0 + 4.0 * s
    lp = max(grid.dx * np.sum(np.abs(u) ** p) for u in tail)
    hs = max(hs_norm_1d(grid, u, s) ** 2 for u in tail)
    mloc = highest_local_mass(grid, family, radius)
    ratio = lp / (mloc ** (2.0 * s) * hs)
    return {"ratio": float(ratio), "bound": c_cal, "pass": bool(ratio <= c_cal)}


def _chi_eta(grid: PeriodicGrid1D, center: float, radius: float):
    """Extraction cutoffs: chi = 1 on B(c, R/2), 0 outside B(c, R);
    eta = 0 on B(c, 2R), 1 outside B(c, 4R); smooth in between."""
    d = circle_distance(grid, center)

    def smooth01(y):
        y = np.clip(y, 0.0, 1.0)
        return y * y * (3.0 - 2.0 * y)

    chi = 1.0 - smooth01((d - 0.5 * radius) / (0.5 * radius))
    eta = smooth01((d - 2.0 * radius) / (2.0 * radius))
    return chi, eta


def profile_decompose(grid: PeriodicGrid1D, family: SequenceFamily, s: float,
                      eps: float, r0: float | None = None) -> dict:
    """Constructive splitting of a bounded family into receding bumps.

    Round j: recenter every member at its local-mass maximizer (ties toward
    the smaller coordinate), extract the bump with chi at radius R_j, keep the
    far remainder through eta, and discard the transition annulus.  R_j
    doubles each round; rounds stop when the remainder's highest local mass
    falls to eps.  The deterministic "weak limit" of round j is the recentered
    extract of the last member.

    Returns profiles [(v_j, centers_j)], the remainder family, the radius
    schedule, the mass budget and the sum of the profile masses.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    members = [np.asarray(u, dtype=np.complex128).copy() for u in family.members]
    sup_mass_sq = max(l2_norm(grid, u) ** 2 for u in members)
    radius = grid.length / 64.0 if r0 is None else r0
    probe = radius
    profiles = []
    schedule = []
    while highest_local_mass(grid, SequenceFamily(members), probe) > eps:
        if len(profiles) >= MAX_PROFILES:
            raise MaxProfilesExceeded(f"more than {MAX_PROFILES} extraction rounds")
        centers = []
        extracts = []
        remainders = []
        for u in members:
            c, _ = local_mass_sup(grid, u, radius)
            chi, eta = _chi_eta(grid, c, radius)
            v = np.roll(chi * u, -int(round(c / grid.dx)))  # recentered extract
            centers.append(c)
            extracts.append(v)
            remainders.append(eta * u)
        limit = extracts[-1]
        profiles.append({"profile": limit, "centers": centers,
                         "mass": l2_norm(grid, limit) ** 2})
        schedule.append(radius)
        members = remainders
        radius = min(2.0 * radius, grid.length / 5.0)
    return {
        "profiles": profiles,
        "remainder": SequenceFamily(members),
        "radii": schedule,
        "mass_budget": sup_mass_sq,
        "profile_mass_sum": float(sum(p["mass"] for p in profiles)),
    }


# --- the operator-check suite ---------------------------------------------------

SUITES = ("commutator", "localization", "ims", "subcritical", "profiles")  # in report order


def run_suite(suite: str, grid: PeriodicGrid1D, s: float, tol, seed: int) -> list[CheckRecord]:
    """The `operator-check` suite at order s: "all" or one of SUITES, as check
    records; ValueError for any other name.

    tol (config.Tolerances) supplies c_cal_commutator and c_cal_subcritical;
    seed draws the random cutoffs of the commutator and localization checks.
    The lower bounds -1e-8 and the relative pads 1e-6 are rounding slack.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"suite must be all or one of {', '.join(SUITES)}")
    commutator, localization, ims, subcritical, profiles = (suite in (n, "all") for n in SUITES)
    rng = np.random.default_rng(seed)
    length = grid.length
    records = []

    def add(check, params, stat, bound, relation="<="):
        records.append(CheckRecord(check, params, stat, bound, relation=relation))

    if commutator:
        for _ in range(5):
            chi = random_smooth_chi(grid, rng)
            cn = commutator_norm(grid, s, 1.0, chi)
            bound = tol.c_cal_commutator * float(np.max(np.abs(spectral_gradient(grid, chi))))
            add("commutator_norm", {"s": s}, cn, bound)
    if localization:
        out = localization_defect(grid, min(s, 0.99), random_smooth_chi(grid, rng))
        high = out["upper_bound"] * (1 + 1e-6)
        add("localization_spectrum_low", {"s": s}, out["eig_min"], -1e-8, ">=")
        add("localization_spectrum_high", {"s": s}, out["eig_max"], high)
        add("double_commutator", {"s": s}, out["double_commutator_norm"],
            out["double_commutator_bound"])
    if ims:
        d = ims_defect(grid, min(s, 0.99), partition_pair(grid, length / 4.0, length / 24.0))
        add("ims_defect", {"s": s}, d, -1e-8, ">=")
    if subcritical:
        fam = SequenceFamily([_gaussian_bump(grid, length / 2 + 0.5 * k, length / 24.0)
                              for k in range(8)])
        out = subcritical_check(grid, fam, s, length / 8.0, tol.c_cal_subcritical)
        add("subcritical_ratio", {"s": s}, out["ratio"], out["bound"])
    if profiles:
        wdt, sep = length / 200.0, length / 60.0
        members = [_gaussian_bump(grid, length / 2 - sep * k, wdt)
                   + _gaussian_bump(grid, length / 2 + sep * k, wdt, 1.0 / np.sqrt(2.0))
                   for k in range(2, 14)]
        m1 = l2_norm(grid, members[-1]) ** 2
        out = profile_decompose(grid, SequenceFamily(members), s, eps=0.02 * m1, r0=length / 64.0)
        add("profile_count", {}, len(out["profiles"]), 2, "==")
        add("profile_mass_budget", {}, out["profile_mass_sum"], out["mass_budget"] * (1 + 1e-6))
    return records
