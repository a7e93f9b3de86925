"""Radial 3D spectral discretization.

A radial function u(|x|) on R^3 is represented through g(r) = r*u(r) with odd
extension, so the 3D Fourier transform reduces to a type-I discrete sine
transform of g.  All Fourier multipliers (sqrt(-Delta + m^2), fractional
Sobolev weights, the free propagator) act diagonally in that basis, and the
attractive Coulomb potential |x|^-1 * |u|^2 comes from solving the radial
Poisson equation in the same sine basis (Newton's shell formula by cumulative
trapezoid sums is kept as a cross-check).  One RadialKernel per (grid, params)
does all of this; it is the only user of scipy.fft in the package.

Grid convention: n_points samples at r_j = j*dr (j = 1..n), r_max = n*dr,
frequencies k_m = m*pi/r_max.  The sine basis vanishes at r = 0 and r = r_max,
so the last sample sits on the basis null: the transform acts on the n-1
interior samples and carries a structurally-zero top coefficient.  Resolved
fields must decay well before r_max (the boundary sample is pinned to zero by
any spectral operation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct, dst, idst

__all__ = [
    "RadialGrid",
    "Field",
    "SpectralField",
    "ModelParams",
    "RadialKernel",
    "kernel",
    "radial_transform",
    "inverse_radial_transform",
    "apply_multiplier",
    "coulomb_potential_density",
    "mass",
    "interaction_energy",
    "energy",
    "kinetic_energy",
    "hs_norm",
    "homogeneous_half_sq",
    "field_from_profile",
    "gaussian_field",
    "sech_field",
    "PROFILES",
    "zero_field",
    "random_smooth_field",
    "rescale_field",
    "field_to_json",
    "field_from_json",
    "load_field_json",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh with its sine-transform dual frequencies."""

    n_points: int
    r_max: float

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_points

    @property
    def r(self) -> np.ndarray:
        """Sample radii r_j = j*dr, j = 1..n_points (last one equals r_max)."""
        return self.dr * np.arange(1, self.n_points + 1)

    @property
    def frequencies(self) -> np.ndarray:
        """Dual frequencies k_m = m*pi/r_max, m = 1..n_points."""
        return (np.pi / self.r_max) * np.arange(1, self.n_points + 1)

    @property
    def weight(self) -> float:
        """Quadrature weight of the 3D radial integral: 4*pi*dr (times r^2)."""
        return 4.0 * np.pi * self.dr

    @property
    def boundary_radius(self) -> float:
        """Start 0.9*r_max of the boundary zone, where mass signals domain truncation."""
        return 0.9 * self.r_max


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: the mass constant m >= 0 of the dispersion sqrt(-Delta+m^2)."""

    mass: float = 0.0

    def __post_init__(self):
        if not self.mass >= 0:
            raise ValueError("mass must be nonnegative")


def _as_values(values, n):
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class Field:
    """Complex radial function sampled on a RadialGrid; values[j] = u(r_{j+1}), read-only.

    Values that another handle could write are copied; a row of a frozen array is kept.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = _as_values(self.values, self.grid.n_points)
        object.__setattr__(self, "values", v if _read_only(v) else frozen(v.copy()))


def _read_only(a) -> bool:
    """True when neither a nor any array it views is writable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only together with every array it views."""
    base = a
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return a


@dataclass(frozen=True)
class SpectralField:
    """Sine-transform coefficients of a Field, indexed by frequency k_m.

    Normalized so that the Euclidean coefficient norm equals the physical
    L2(R^3) norm (Parseval with plain sums).  The top coefficient is
    structurally zero (the m = n sine mode vanishes on the grid).
    """

    grid: RadialGrid
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           frozen(_as_values(self.coefficients, self.grid.n_points).copy()))


class RadialKernel:
    """The spectral kernel of one (grid, params): every sine-basis operation.

    Holds r, k, omega = sqrt(k^2 + m^2), the sqrt(4*pi*dr) scale, the
    H^{1/2} weight sqrt(1 + k^2) and the boundary-zone mask r >= 0.9*r_max,
    computed once, and offers the DST-I pair on raw arrays, the Poisson
    solve, the Coulomb interaction, one Strang step and the virial weight.
    Obtain it through `kernel`, which caches one per (grid, params).
    """

    def __init__(self, grid: RadialGrid, params: ModelParams):
        self.grid = grid
        self.r = grid.r
        self.k = grid.frequencies
        self.omega = np.sqrt(self.k * self.k + params.mass**2)
        self.h_half_weight = np.sqrt(1.0 + self.k * self.k)
        self.scale = np.sqrt(grid.weight)
        self.boundary = self.r >= grid.boundary_radius
        self._k2 = self.k[:-1] * self.k[:-1]
        for a in (self.r, self.k, self.omega, self.h_half_weight, self.boundary, self._k2):
            a.setflags(write=False)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the samples u(r_j): DST-I of g = r*u on the interior samples.

        Carries the 4*pi factor of the radial volume element folded into the
        coefficients, so sum |c_m|^2 = mass for resolved fields.
        """
        c = np.empty(self.grid.n_points, dtype=np.complex128)
        c[:-1] = self.scale * dst(self.r[:-1] * values[:-1], type=1, norm="ortho")
        c[-1] = 0.0
        return c

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Samples of the field with these coefficients; the boundary sample is zero."""
        v = np.empty(self.grid.n_points, dtype=np.complex128)
        v[:-1] = idst(coefficients[:-1] / self.scale, type=1, norm="ortho") / self.r[:-1]
        v[-1] = 0.0
        return v

    def density_transform(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """(sine coefficients of r*rho on the interior, total mass of rho)."""
        r = self.r
        total = self.grid.weight * float(np.sum(rho * r * r))
        return dst(rho[:-1] * r[:-1], type=1, norm="ortho"), total

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """Newton potential |x|^-1 * rho by the sine-basis Poisson solve.

        With h0 = r*V - M*r/r_max one has h0'' = -4*pi*r*rho and h0 vanishes
        at both ends, so h0_m = 4*pi*(r*rho)^_m / k_m^2 termwise and the exact
        exterior monopole M/r is restored by the linear ramp.
        """
        rho_tilde, total = self.density_transform(rho)
        h0 = np.empty(self.grid.n_points)
        h0[:-1] = idst(4.0 * np.pi * rho_tilde / self._k2, type=1, norm="ortho")
        h0[-1] = 0.0
        return h0 / self.r + total / self.grid.r_max

    def interaction(self, rho: np.ndarray) -> float:
        """D(rho, rho) = 4*pi int (|x|^-1 * rho) rho r^2 dr, in the Parseval form of the Poisson solve."""
        rho_tilde, total = self.density_transform(rho)
        return float(self.grid.weight * 4.0 * np.pi * np.sum(rho_tilde**2 / self._k2)
                     + total * total / self.grid.r_max)

    def virial_weight(self, values: np.ndarray) -> float:
        """W = sum_j <x_j u, omega(D) x_j u> of the radial samples u(r_j).

        In Fourier variables x_j is i d/dxi_j, so W = 8 int omega |C - S/k|^2 dk
        with S(k) = int r u sin(kr) dr, the forward DST rescaled, and
        C(k) = int r^2 u cos(kr) dr, one DCT-I of r^2 u over r_0 = 0 .. r_max
        (trapezoid end at r_max); the integral is the sum over k_m times pi/r_max.
        """
        dr, n = self.grid.dr, self.grid.n_points
        s = self.forward(values) * (dr * np.sqrt(n / 2.0) / self.scale)
        c = 0.5 * dr * dct(np.concatenate(([0.0], self.r * self.r * values)), type=1)[1:]
        return float(8.0 * np.pi / self.grid.r_max
                     * np.sum(self.omega * np.abs(c - s / self.k) ** 2))

    def strang(self, c: np.ndarray, dt: float,
               potential: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """One Strang step on coefficients; returns (new coefficients, V).

        Free half step, exact rotation exp(+i dt V) in physical space, free
        half step.  V is the self-consistent potential of the half-stepped
        field unless `potential` forces it.
        """
        phase_half = np.exp(-0.5j * dt * self.omega)
        u_mid = self.inverse(phase_half * c)
        v = self.potential(np.abs(u_mid) ** 2) if potential is None else potential
        return phase_half * self.forward(u_mid * np.exp(1j * dt * v)), v


@lru_cache(maxsize=8)
def _cached_kernel(grid: RadialGrid, params: ModelParams) -> RadialKernel:
    return RadialKernel(grid, params)


def kernel(grid: RadialGrid, params: ModelParams | None = None) -> RadialKernel:
    """The cached RadialKernel of (grid, params); params default to m = 0."""
    return _cached_kernel(grid, ModelParams() if params is None else params)


def radial_transform(f: Field) -> SpectralField:
    """Forward transform of a Field (see RadialKernel.forward)."""
    return SpectralField(f.grid, kernel(f.grid).forward(f.values))


def inverse_radial_transform(sf: SpectralField) -> Field:
    return Field(sf.grid, kernel(sf.grid).inverse(sf.coefficients))


def apply_multiplier(f: Field, symbol, params: ModelParams | None = None) -> Field:
    """Apply a Fourier multiplier symbol(k) (or symbol(k, params)) diagonally."""
    kern = kernel(f.grid)
    sym = symbol(kern.k) if params is None else symbol(kern.k, params)
    sym = np.asarray(sym)
    if not np.all(np.isfinite(sym)):
        raise ValueError("multiplier symbol must be finite on all grid frequencies")
    return Field(f.grid, kern.inverse(kern.forward(f.values) * sym))


def mass(f: Field) -> float:
    """L2 mass on R^3: 4*pi * sum |u|^2 r^2 dr."""
    g = f.grid
    return float(g.weight * np.sum(np.abs(f.values) ** 2 * g.r**2))


def coulomb_potential_density(rho: np.ndarray, grid: RadialGrid,
                              method: str = "spectral") -> np.ndarray:
    """Newton potential |x|^-1 * rho of a radial density rho >= 0.

    method="spectral" (default) is the sine-basis Poisson solve of
    RadialKernel.potential, spectrally accurate for resolved densities.

    method="trapezoid" evaluates Newton's shell formula
    V(r) = 4*pi [ (1/r) int_0^r rho s^2 ds + int_r^rmax rho s ds ] by
    cumulative trapezoid sums, O(dr^2); kept as an independent cross-check of
    the spectral route (and it satisfies r*V <= mass exactly).  The first
    interval [0, dr] uses the fact that rho*s^2 vanishes at s = 0, so no 1/r
    singularity is ever evaluated.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if method == "trapezoid":
        from scipy.integrate import cumulative_trapezoid

        r = grid.r
        inner = cumulative_trapezoid(rho * r * r, r, initial=0.0)
        inner += 0.5 * grid.dr * rho[0] * r[0] ** 2  # [0, r_1] segment, integrand 0 at s=0
        outer_cum = cumulative_trapezoid(rho * r, r, initial=0.0)
        outer = outer_cum[-1] - outer_cum
        return 4.0 * np.pi * (inner / r + outer)
    if method != "spectral":
        raise ValueError(f"unknown Coulomb method {method!r}")
    return kernel(grid).potential(rho)


def interaction_energy(f: Field) -> float:
    """Quartic interaction functional D(|u|^2, |u|^2) (the self-Coulomb energy, twice)."""
    return kernel(f.grid).interaction(np.abs(f.values) ** 2)


def kinetic_energy(f: Field, params: ModelParams) -> float:
    """Quadratic form <u, sqrt(-Delta + m^2) u>."""
    kern = kernel(f.grid, params)
    return float(np.sum(kern.omega * np.abs(kern.forward(f.values)) ** 2))


def energy(f: Field, params: ModelParams) -> float:
    """Conserved energy: (1/2)<u, sqrt(-Delta+m^2) u> - (1/4) D(|u|^2)."""
    return 0.5 * kinetic_energy(f, params) - 0.25 * interaction_energy(f)


def hs_norm(f: Field, s: float) -> float:
    """Inhomogeneous Sobolev norm ||(1+k^2)^{s/2} u^||_2 for s in [-1, 1]."""
    kern = kernel(f.grid)
    c = kern.forward(f.values)
    return float(np.sqrt(np.sum((1.0 + kern.k * kern.k) ** s * np.abs(c) ** 2)))


def homogeneous_half_sq(f: Field) -> float:
    """Squared homogeneous H^{1/2} seminorm: sum k |c_k|^2 = || |grad|^{1/2} u ||_2^2."""
    kern = kernel(f.grid)
    return float(np.sum(kern.k * np.abs(kern.forward(f.values)) ** 2))


# --- constructors -----------------------------------------------------------

def field_from_profile(grid: RadialGrid, profile) -> Field:
    """Sample a callable radial profile on the grid."""
    return Field(grid, np.asarray(profile(grid.r), dtype=np.complex128))


def gaussian_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude * np.exp(-(r**2) / (2.0 * width**2)))


def sech_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude / np.cosh(r / width))


PROFILES = {"gaussian": gaussian_field, "sech": sech_field}  # the named data profiles


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


# --- serialization ----------------------------------------------------------

def field_to_json(f: Field) -> dict:
    return {
        "grid": {"n_points": f.grid.n_points, "r_max": f.grid.r_max},
        "values": [[float(v.real), float(v.imag)] for v in f.values],
    }


def field_from_json(obj: dict) -> Field:
    grid = RadialGrid(int(obj["grid"]["n_points"]), float(obj["grid"]["r_max"]))
    vals = np.array([complex(re, im) for re, im in obj["values"]])
    return Field(grid, vals)


def load_field_json(path) -> Field:
    with open(path) as fh:
        return field_from_json(json.load(fh))
