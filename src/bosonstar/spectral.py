"""Radial 3D spectral discretization.

A radial function u(|x|) on R^3 is represented through g(r) = r*u(r) with odd
extension, so the 3D Fourier transform reduces to a type-I discrete sine
transform of g.  All Fourier multipliers (sqrt(-Delta + m^2), fractional
Sobolev weights, the free propagator) act diagonally in that basis, and the
attractive Coulomb potential |x|^-1 * |u|^2 comes from solving the radial
Poisson equation in the same sine basis.  One RadialKernel per (grid, params)
does all of this.  Its transforms call scipy's pocketfft extension,
scipy.fft._pocketfft.pypocketfft, which this module loads from its file and
registers under that name, as scipy.fft's dst, idst and dct call it: the
package never imports scipy.fft (0.15-0.25 s and some 22 MB per process).
Importing this module, and so any bosonstar module, frees one untouched 4 MiB
block, which raises glibc's dynamic mmap threshold to 4 MiB (and its trim
threshold to 8 MiB) for the rest of the process: a step then takes no fresh
pages, in a command and in any other importer alike.

Grid convention: n_points samples at r_j = j*dr (j = 1..n), r_max = n*dr,
frequencies k_m = m*pi/r_max.  The sine basis vanishes at r = 0 and r = r_max,
so the last sample sits on the basis null: the transform acts on the n-1
interior samples and carries a structurally-zero top coefficient.  Resolved
fields must decay well before r_max (the boundary sample is pinned to zero by
any spectral operation).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RadialGrid",
    "Field",
    "SpectralField",
    "ModelParams",
    "RadialKernel",
    "kernel",
    "radial_transform",
    "inverse_radial_transform",
    "coulomb_potential_density",
    "mass",
    "energy",
    "field_from_profile",
    "gaussian_field",
    "sech_field",
    "PROFILES",
    "field_to_json",
    "field_from_json",
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

    An array that is read-only and views no other array (base None), as every
    SnapshotRows row is, is kept; anything else is copied once and the copy made read-only.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = _as_values(self.values, self.grid.n_points)
        if v.flags.writeable or v.base is not None:  # another handle could write it
            v = v.copy()
            v.flags.writeable = False
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
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise as re^2 + im^2, in a new array."""
    out = z.real * z.real
    if np.iscomplexobj(z):
        out += z.imag * z.imag
    return out


_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_pocketfft():
    """scipy's pocketfft extension, loaded from its file without running any scipy __init__.

    It is registered in sys.modules under its full name, the name that a later
    `import scipy.fft` in the same process looks up, so scipy.fft reuses this module.
    """
    if _POCKETFFT in sys.modules:
        return sys.modules[_POCKETFFT]
    need = "bosonstar.spectral needs scipy's pocketfft extension"
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"{need}, and scipy is not installed")
    path = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft",
                        "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"{need}, not found at {path}")
    loader = importlib.machinery.ExtensionFileLoader(_POCKETFFT, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_POCKETFFT, loader))
    loader.exec_module(module)
    sys.modules[_POCKETFFT] = module
    return module


_pocketfft = _load_pocketfft()
# freeing an mmapped block raises glibc's mmap threshold to its size (mallopt(3)), so the
# n-sized temporaries of each step, pocketfft's scratch and the lab's arrays reuse heap pages
# instead of mapping fresh ones; the block's pages are never touched, so this takes no page faults
np.empty(1 << 22, np.uint8)


# OpenBLAS (0.3.31, as numpy ships it) splits ddot across its threads above this
# many entries, so np.dot's summation order there follows OPENBLAS_NUM_THREADS
_DOT_SERIAL_MAX = 10_000


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) of two 1-D float64 arrays in an order that no thread setting changes: np.dot
    (one OpenBLAS thread) up to _DOT_SERIAL_MAX entries, above that the dot of the first
    ceil(len/2) entries plus the dot of the rest.  Up to 20,000 entries that is the split of two
    OpenBLAS threads, and so their bits; one split alone would leave longer halves threaded."""
    n = len(a)
    if n <= _DOT_SERIAL_MAX:
        return float(np.dot(a, b))
    h = (n + 1) // 2
    return dot(a[:h], b[:h]) + dot(a[h:], b[h:])


def _type_one(transform, x: np.ndarray, inorm: int, overwrite_x: bool = False) -> np.ndarray:
    """Type-I `transform` (pocketfft's dst or dct) of the 1-D array x, called with the
    arguments (a, type, axes, inorm, out, nthreads) that scipy.fft's dst and dct pass: inorm 1
    is norm="ortho", under which type I is its own inverse (idst is the same call), and 0 is
    the plain forward transform.

    A complex128 x is transformed in one call on its interleaved (n, 2) view of (re, im)
    pairs, which gives the bits of scipy's complex call.  Under the raised mmap threshold the
    view beats two calls on the real and imaginary halves up to length 32767; from 65535 on
    the halves are 16-26 % faster, so grids that long would want them back.  Pass
    overwrite_x only for an array the caller has just allocated: the result is written into it.
    """
    if x.dtype != np.complex128:
        return transform(x, 1, (0,), inorm, x if overwrite_x else None, 1)
    pairs = np.ascontiguousarray(x).view(np.float64).reshape(-1, 2)
    out = transform(pairs, 1, (0,), inorm, pairs if overwrite_x else None, 1)
    return out.view(np.complex128).reshape(-1)


def _sine(x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Orthonormal DST-I of the 1-D array x, which is its own inverse (see _type_one)."""
    return _type_one(_pocketfft.dst, x, 1, overwrite_x)


def _rotation(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) of the real array theta, written as cos + i sin into one new array: on
    every sample compared, the bits of np.exp(1j * theta) (whose real part is +-0), at about
    two thirds of its cost."""
    z = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


class RadialKernel:
    """The spectral kernel of one (grid, params): every sine-basis operation.

    Holds r, k, omega = sqrt(k^2 + m^2), the sqrt(4*pi*dr) scale and the
    H^{1/2} weight sqrt(1 + k^2), computed once, and offers the DST-I pair on
    raw arrays, `mass(rho, radius)` (the one radial mass sum), the Poisson
    solve, the Coulomb interaction, the H^{1/2} seminorm, the energy, one
    Strang step and the virial weight.  The transform weights scale*r and
    1/(scale*r), the Poisson weight 4*pi/k^2, 1/r and the mass weight
    4*pi*dr*r^2 are precomputed too, and the free half-step phase of the
    last dt is kept for the next step.
    Obtain it through `kernel`, which builds one per (grid, params).
    """

    def __init__(self, grid: RadialGrid, params: ModelParams):
        self.grid = grid
        self.r = grid.r
        self.k = grid.frequencies
        self.omega = np.sqrt(self.k * self.k + params.mass**2)
        self.h_half_weight = np.sqrt(1.0 + self.k * self.k)
        self.scale = np.sqrt(grid.weight)
        self.mass_weight = grid.weight * self.r * self.r  # sum(rho * mass_weight) = mass of rho
        interior = self.r[:-1]
        self._to_coefficients = self.scale * interior
        self._to_samples = 1.0 / self._to_coefficients
        self._inv_r = 1.0 / interior
        self._poisson = 4.0 * np.pi / (self.k[:-1] * self.k[:-1])
        for a in (self.r, self.k, self.omega, self.h_half_weight, self.mass_weight,
                  self._to_coefficients, self._to_samples, self._inv_r, self._poisson):
            a.setflags(write=False)
        self._phase_dt, self._phase = None, None

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the samples u(r_j): DST-I of g = r*u on the interior samples.

        Carries the 4*pi factor of the radial volume element folded into the
        coefficients, so sum |c_m|^2 = mass for resolved fields.
        """
        c = np.empty(self.grid.n_points, dtype=np.complex128)
        c[:-1] = _sine(self._to_coefficients * values[:-1], overwrite_x=True)
        c[-1] = 0.0
        return c

    def inverse(self, coefficients: np.ndarray) -> np.ndarray:
        """Samples of the field with these coefficients; the boundary sample is zero."""
        v = np.empty(self.grid.n_points, dtype=np.complex128)
        np.multiply(_sine(coefficients[:-1]), self._to_samples, out=v[:-1])
        v[-1] = 0.0
        return v

    def mass(self, rho: np.ndarray, radius: float = 0.0) -> float:
        """Mass 4*pi int_{r >= radius} rho r^2 dr of the density rho, over the r_j >= radius."""
        i = int(np.searchsorted(self.r, radius))
        return dot(rho[i:], self.mass_weight[i:])

    def density_transform(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """(sine coefficients of r*rho on the interior, total mass of rho)."""
        return _sine(rho[:-1] * self.r[:-1], overwrite_x=True), self.mass(rho)

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """Newton potential |x|^-1 * rho by the sine-basis Poisson solve.

        With h0 = r*V - M*r/r_max one has h0'' = -4*pi*r*rho and h0 vanishes
        at both ends, so h0_m = 4*pi*(r*rho)^_m / k_m^2 termwise and the exact
        exterior monopole M/r is restored by the linear ramp.
        """
        rho_tilde, total = self.density_transform(rho)
        rho_tilde *= self._poisson
        v = np.empty(self.grid.n_points)
        np.multiply(_sine(rho_tilde, overwrite_x=True), self._inv_r, out=v[:-1])
        v[-1] = 0.0
        v += total / self.grid.r_max
        return v

    def interaction(self, rho: np.ndarray) -> float:
        """D(rho, rho) = 4*pi int (|x|^-1 * rho) rho r^2 dr, in the Parseval form of the Poisson solve."""
        rho_tilde, total = self.density_transform(rho)
        return (self.grid.weight * dot(rho_tilde * rho_tilde, self._poisson)
                + total * total / self.grid.r_max)

    def homogeneous_half_sq(self, values: np.ndarray) -> float:
        """Squared homogeneous H^{1/2} seminorm sum k |c_k|^2 = || |grad|^{1/2} u ||_2^2 of u(r_j)."""
        return dot(self.k, abs2(self.forward(values)))

    def energy(self, power: np.ndarray, rho: np.ndarray) -> float:
        """(1/2) sum omega |c|^2 - (1/4) D(rho): the energy of the state with coefficient
        power |c|^2 and density rho = |u|^2."""
        return 0.5 * dot(self.omega, power) - 0.25 * self.interaction(rho)

    def virial_weight(self, values: np.ndarray) -> float:
        """W = sum_j <x_j u, omega(D) x_j u> of the radial samples u(r_j).

        In Fourier variables x_j is i d/dxi_j, so W = 8 int omega |C - S/k|^2 dk
        with S(k) = int r u sin(kr) dr, the forward DST rescaled, and
        C(k) = int r^2 u cos(kr) dr, one DCT-I of r^2 u over r_0 = 0 .. r_max
        (trapezoid end at r_max); the integral is the sum over k_m times pi/r_max.
        """
        dr, n = self.grid.dr, self.grid.n_points
        s = self.forward(values) * (dr * np.sqrt(n / 2.0) / self.scale)
        g = np.concatenate(([0.0], self.r * self.r * values))
        c = 0.5 * dr * _type_one(_pocketfft.dct, g, 0, overwrite_x=True)[1:]
        return 8.0 * np.pi / self.grid.r_max * dot(self.omega, abs2(c - s / self.k))

    def _half_phase(self, dt: float) -> np.ndarray:
        """The free half-step multiplier exp(-i dt/2 omega), read-only; kept for the last dt."""
        if dt != self._phase_dt:
            self._phase = _rotation((-0.5 * dt) * self.omega)
            self._phase.setflags(write=False)
            self._phase_dt = dt
        return self._phase

    def strang(self, c: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """One Strang step on coefficients; returns (new coefficients, V).

        Free half step, exact rotation exp(+i dt V) in physical space, free
        half step.  V is the self-consistent potential of the half-stepped field.
        """
        phase_half = self._half_phase(dt)
        u_mid = self.inverse(phase_half * c)
        v = self.potential(abs2(u_mid))
        u_mid *= _rotation(dt * v)
        c_new = self.forward(u_mid)
        c_new *= phase_half
        return c_new, v


@lru_cache(maxsize=8)
def kernel(grid: RadialGrid, params: ModelParams) -> RadialKernel:
    """The RadialKernel of (grid, params), built once per pair passed positionally."""
    return RadialKernel(grid, params)


def radial_transform(f: Field) -> SpectralField:
    """Forward transform of a Field (see RadialKernel.forward)."""
    return SpectralField(f.grid, kernel(f.grid, ModelParams()).forward(f.values))


def inverse_radial_transform(sf: SpectralField) -> Field:
    return Field(sf.grid, kernel(sf.grid, ModelParams()).inverse(sf.coefficients))


def mass(f: Field) -> float:
    """L2 mass on R^3: 4*pi * sum |u|^2 r^2 dr.

    Kept as np.sum, not RadialKernel.mass: the dot order moves the last bits of M_c and of
    every mass that is scaled from it, and so every stored output."""
    g = f.grid
    return float(g.weight * np.sum(abs2(f.values) * g.r**2))


def coulomb_potential_density(rho: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Newton potential |x|^-1 * rho of a radial density rho >= 0: the sine-basis
    Poisson solve of RadialKernel.potential, spectrally accurate for resolved densities."""
    return kernel(grid, ModelParams()).potential(np.asarray(rho, dtype=np.float64))


def energy(f: Field, params: ModelParams) -> float:
    """Conserved energy: (1/2)<u, sqrt(-Delta+m^2) u> - (1/4) D(|u|^2)."""
    kern = kernel(f.grid, params)
    return kern.energy(abs2(kern.forward(f.values)), abs2(f.values))


# --- constructors -----------------------------------------------------------

def field_from_profile(grid: RadialGrid, profile) -> Field:
    """Sample a callable radial profile on the grid."""
    return Field(grid, np.asarray(profile(grid.r), dtype=np.complex128))


def gaussian_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude * np.exp(-(r**2) / (2.0 * width**2)))


def sech_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    return field_from_profile(grid, lambda r: amplitude / np.cosh(r / width))


PROFILES = {"gaussian": gaussian_field, "sech": sech_field}  # the named data profiles


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
