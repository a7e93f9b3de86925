"""Radial 3D spectral discretization.

A radial function u(|x|) on R^3 is represented through g(r) = r*u(r) with odd
extension, so the 3D Fourier transform reduces to a type-I discrete sine
transform of g.  All Fourier multipliers (sqrt(-Delta + m^2), fractional
Sobolev weights, the free propagator) act diagonally in that basis, and the
attractive Coulomb potential |x|^-1 * |u|^2 comes from solving the radial
Poisson equation in the same sine basis (Newton's shell formula by cumulative
trapezoid sums is kept as a cross-check).

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

import numpy as np
from scipy.fft import dst, idst

__all__ = [
    "RadialGrid",
    "Field",
    "SpectralField",
    "ModelParams",
    "radial_transform",
    "inverse_radial_transform",
    "apply_multiplier",
    "coulomb_potential",
    "coulomb_potential_density",
    "mass",
    "boundary_mass",
    "interaction_energy",
    "interaction_bilinear",
    "energy",
    "massless_energy",
    "kinetic_energy",
    "hs_norm",
    "homogeneous_half_sq",
    "field_from_profile",
    "gaussian_field",
    "sech_field",
    "zero_field",
    "random_smooth_field",
    "rescale_field",
    "field_to_json",
    "field_from_json",
    "field_to_csv",
    "field_from_csv",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh with its sine-transform dual frequencies."""

    n_points: int
    r_max: float

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.r_max <= 0:
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


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: the mass constant m >= 0 of the dispersion sqrt(-Delta+m^2)."""

    mass: float = 0.0

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")


def _as_values(values, n):
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class Field:
    """Complex radial function sampled on a RadialGrid; values[j] = u(r_{j+1})."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = _as_values(self.values, self.grid.n_points).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


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
        c = _as_values(self.coefficients, self.grid.n_points).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def radial_transform(f: Field) -> SpectralField:
    """Forward transform: DST-I of g = r*u on the interior samples.

    Carries the 4*pi factor of the radial volume element folded into the
    coefficients, so sum |c_m|^2 = mass(f) for resolved fields.
    """
    grid = f.grid
    g = grid.r[:-1] * f.values[:-1]
    scale = np.sqrt(grid.weight)
    c = np.empty(grid.n_points, dtype=np.complex128)
    c[:-1] = scale * (dst(g.real, type=1, norm="ortho")
                      + 1j * dst(g.imag, type=1, norm="ortho"))
    c[-1] = 0.0
    return SpectralField(grid, c)


def inverse_radial_transform(sf: SpectralField) -> Field:
    grid = sf.grid
    scale = np.sqrt(grid.weight)
    c = sf.coefficients[:-1] / scale
    g = idst(c.real, type=1, norm="ortho") + 1j * idst(c.imag, type=1, norm="ortho")
    v = np.empty(grid.n_points, dtype=np.complex128)
    v[:-1] = g / grid.r[:-1]
    v[-1] = 0.0
    return Field(grid, v)


def apply_multiplier(f: Field, symbol, params: ModelParams | None = None) -> Field:
    """Apply a Fourier multiplier symbol(k) (or symbol(k, params)) diagonally."""
    sf = radial_transform(f)
    k = f.grid.frequencies
    sym = symbol(k) if params is None else symbol(k, params)
    sym = np.asarray(sym)
    if not np.all(np.isfinite(sym)):
        raise ValueError("multiplier symbol must be finite on all grid frequencies")
    return inverse_radial_transform(SpectralField(f.grid, sf.coefficients * sym))


def mass(f: Field) -> float:
    """L2 mass on R^3: 4*pi * sum |u|^2 r^2 dr."""
    g = f.grid
    return float(g.weight * np.sum(np.abs(f.values) ** 2 * g.r**2))


def boundary_mass(f: Field, fraction: float = 0.9) -> float:
    """Mass carried beyond fraction*r_max (domain-truncation monitor)."""
    g = f.grid
    sel = g.r >= fraction * g.r_max
    return float(g.weight * np.sum(np.abs(f.values[sel]) ** 2 * g.r[sel] ** 2))


def coulomb_potential_density(rho: np.ndarray, grid: RadialGrid,
                              method: str = "spectral") -> np.ndarray:
    """Newton potential |x|^-1 * rho of a radial density rho >= 0.

    method="spectral" (default) solves the radial Poisson equation in the sine
    basis: with h0 = r*V - M*r/r_max one has h0'' = -4*pi*r*rho and h0 vanishes
    at both ends, so h0_m = 4*pi*(r*rho)^_m / k_m^2 termwise and the exact
    exterior monopole M/r is restored by the linear ramp.  Spectrally accurate
    for resolved densities.

    method="trapezoid" evaluates Newton's shell formula
    V(r) = 4*pi [ (1/r) int_0^r rho s^2 ds + int_r^rmax rho s ds ] by
    cumulative trapezoid sums, O(dr^2); kept as an independent cross-check of
    the spectral route (and it satisfies r*V <= mass exactly).  The first
    interval [0, dr] uses the fact that rho*s^2 vanishes at s = 0, so no 1/r
    singularity is ever evaluated.
    """
    r = grid.r
    dr = grid.dr
    rho = np.asarray(rho, dtype=np.float64)
    if method == "trapezoid":
        from scipy.integrate import cumulative_trapezoid

        inner = cumulative_trapezoid(rho * r * r, r, initial=0.0)
        inner += 0.5 * dr * rho[0] * r[0] ** 2  # [0, r_1] segment, integrand 0 at s=0
        outer_cum = cumulative_trapezoid(rho * r, r, initial=0.0)
        outer = outer_cum[-1] - outer_cum
        return 4.0 * np.pi * (inner / r + outer)
    if method != "spectral":
        raise ValueError(f"unknown Coulomb method {method!r}")
    total = grid.weight * np.sum(rho * r * r)
    src = dst((rho[:-1] * r[:-1]), type=1, norm="ortho")
    k = grid.frequencies[:-1]
    h0 = np.empty(grid.n_points)
    h0[:-1] = idst(4.0 * np.pi * src / (k * k), type=1, norm="ortho")
    h0[-1] = 0.0
    return h0 / r + total / grid.r_max


def coulomb_potential(f: Field, method: str = "spectral") -> Field:
    """Potential |x|^-1 * |u|^2 generated by the field's own density."""
    rho = np.abs(f.values) ** 2
    return Field(f.grid, coulomb_potential_density(rho, f.grid, method=method))


def interaction_bilinear(rho1: np.ndarray, rho2: np.ndarray, grid: RadialGrid) -> float:
    """Bilinear Coulomb form 4*pi int (|x|^-1 * rho1) rho2 r^2 dr."""
    v1 = coulomb_potential_density(rho1, grid)
    return float(grid.weight * np.sum(v1 * np.asarray(rho2) * grid.r**2))


def interaction_energy(f: Field) -> float:
    """Quartic interaction functional of |u|^2 (the self-Coulomb energy, twice)."""
    rho = np.abs(f.values) ** 2
    return interaction_bilinear(rho, rho, f.grid)


def kinetic_energy(f: Field, params: ModelParams) -> float:
    """Quadratic form <u, sqrt(-Delta + m^2) u>."""
    c = radial_transform(f).coefficients
    k = f.grid.frequencies
    return float(np.sum(np.sqrt(k * k + params.mass**2) * np.abs(c) ** 2))


def energy(f: Field, params: ModelParams) -> float:
    """Conserved energy: (1/2)<u, sqrt(-Delta+m^2) u> - (1/4) D(|u|^2)."""
    return 0.5 * kinetic_energy(f, params) - 0.25 * interaction_energy(f)


def massless_energy(f: Field) -> float:
    """Energy with the mass constant set to zero (scaling-covariant part)."""
    return energy(f, ModelParams(mass=0.0))


def hs_norm(f: Field, s: float) -> float:
    """Inhomogeneous Sobolev norm ||(1+k^2)^{s/2} u^||_2 for s in [-1, 1]."""
    c = radial_transform(f).coefficients
    k = f.grid.frequencies
    return float(np.sqrt(np.sum((1.0 + k * k) ** s * np.abs(c) ** 2)))


def homogeneous_half_sq(f: Field) -> float:
    """Squared homogeneous H^{1/2} seminorm: sum k |c_k|^2 = || |grad|^{1/2} u ||_2^2."""
    c = radial_transform(f).coefficients
    return float(np.sum(f.grid.frequencies * np.abs(c) ** 2))


# --- constructors -----------------------------------------------------------

def field_from_profile(grid: RadialGrid, profile) -> Field:
    """Sample a callable radial profile on the grid."""
    return Field(grid, np.asarray(profile(grid.r), dtype=np.complex128))


def gaussian_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude * np.exp(-(r**2) / (2.0 * width**2)))


def sech_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude / np.cosh(r / width))


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


def field_to_csv(f: Field, path) -> None:
    with open(path, "w") as fh:
        fh.write("r,re,im\n")
        for r, v in zip(f.grid.r, f.values):
            fh.write(f"{float(r)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def field_from_csv(path) -> Field:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    r = rows[:, 0]
    dr = r[0]
    grid = RadialGrid(len(r), float(r[-1]))
    if not np.allclose(np.diff(r), dr, rtol=1e-10):
        raise ValueError("CSV radii are not a uniform grid starting at dr")
    return Field(grid, rows[:, 1] + 1j * rows[:, 2])


def save_field_json(f: Field, path) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_json(f), fh)


def load_field_json(path) -> Field:
    with open(path) as fh:
        return field_from_json(json.load(fh))
