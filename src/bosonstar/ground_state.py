"""Ground state of the massless boson star equation and the critical mass.

Solves  sqrt(-Delta) Q + Q - (|x|^-1 * |Q|^2) Q = 0  for the positive radial
profile Q by a Petviashvili-type normalized fixed-point iteration.  The
iteration is diagonal in the sine basis: with L = sqrt(-Delta) + 1 and
N(Q) = V_Q Q, each sweep computes

    S_n = <Q_n, L Q_n> / <Q_n, N(Q_n)>,    Q_{n+1} = S_n^gamma L^{-1} N(Q_n),

with stabilizing exponent gamma = 3/2 (the standard choice for a cubic
nonlinearity).  The critical mass is M_c = ||Q||_2^2 and the optimal
interpolation constant is C_opt = 2/M_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    PROFILES,
    Field,
    ModelParams,
    RadialGrid,
    dot,
    kernel,
    mass,
)

__all__ = [
    "GroundState",
    "GroundStateError",
    "NonConvergence",
    "DivergentIterate",
    "ZeroField",
    "solve_ground_state",
    "equation_residual",
    "pohozaev_residual",
    "gn_ratio",
]

DIVERGENCE_NORM = 1e12


class GroundStateError(Exception):
    """Base class for ground-state solver failures; the message names the sweep that failed."""


class NonConvergence(GroundStateError):
    pass


class DivergentIterate(GroundStateError):
    pass


class ZeroField(ValueError):
    pass


@dataclass(frozen=True)
class GroundState:
    """Converged profile with its mass and optimality diagnostics."""

    q: Field
    critical_mass: float
    c_opt: float
    pohozaev_residual: float
    iterations: int
    final_update_norm: float
    equation_residual: float


def solve_ground_state(grid: RadialGrid, tol: float = 1e-10, max_iter: int = 2000,
                       gamma: float = 1.5, seed: Field | str = "gaussian") -> GroundState:
    """Run the normalized fixed-point iteration until the H^{1/2} update stalls below tol.

    seed may be a Field or a name in spectral.PROFILES.  Raises NonConvergence when
    max_iter is exhausted and DivergentIterate when the pairing <Q, N(Q)> is not
    positive or an iterate norm passes 1e12; each message names its sweep.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(seed, str):
        if seed not in PROFILES:
            raise ValueError(f"unknown seed profile {seed!r}")
        seed = PROFILES[seed](grid)
    kern = kernel(grid, ModelParams())
    k = kern.k
    coeffs = kern.forward(seed.values).real.astype(np.complex128)
    update = np.inf
    for it in range(1, max_iter + 1):  # one Petviashvili sweep on the coefficients
        q = kern.inverse(coeffs).real
        nl_coeffs = kern.forward(kern.potential(q * q) * q)
        num = float(np.sum((k + 1.0) * np.abs(coeffs) ** 2))
        den = float(np.real(np.sum(np.conj(coeffs) * nl_coeffs)))
        if den <= 0:
            raise DivergentIterate(f"nonlinear pairing lost positivity in sweep {it}")
        new_coeffs = (num / den) ** gamma * nl_coeffs / (k + 1.0)
        wold = np.sqrt(np.sum(kern.h_half_weight * np.abs(coeffs) ** 2))
        wdiff = np.sqrt(np.sum(kern.h_half_weight * np.abs(new_coeffs - coeffs) ** 2))
        update = wdiff / wold
        coeffs = new_coeffs
        norm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
        if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise DivergentIterate(f"iterate norm {norm:.3e} after {it} sweeps")
        if update < tol:
            break
    else:
        raise NonConvergence(f"update {update:.3e} > tol {tol:.3e} after {max_iter} sweeps")

    q = Field(grid, np.abs(kern.inverse(coeffs).real).astype(np.complex128))  # positivity of the profile
    m_c = mass(q)
    return GroundState(
        q=q,
        critical_mass=m_c,
        c_opt=2.0 / m_c,
        pohozaev_residual=pohozaev_residual(q),
        iterations=it,
        final_update_norm=update,
        equation_residual=equation_residual(q),
    )


def equation_residual(q: Field) -> float:
    """Relative L2 residual ||sqrt(-Delta) Q + Q - V_Q Q||_2 / ||Q||_2."""
    kern = kernel(q.grid, ModelParams())
    lin = kern.inverse((kern.k + 1.0) * kern.forward(q.values))
    qv = q.values.real
    res = lin - kern.potential(qv * qv) * q.values
    return _norm(res * kern.r) / _norm(q.values * kern.r)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of the complex array x, as np.linalg.norm forms it, with spectral.dot."""
    return math.sqrt(dot(x.real, x.real) + dot(x.imag, x.imag))


def pohozaev_residual(q: Field) -> float:
    """Relative defect of the dilation identity 2||grad^{1/2}Q||^2 = D(|Q|^2)."""
    kern = kernel(q.grid, ModelParams())
    kin, dd = kern.homogeneous_half_sq(q.values), kern.interaction(np.abs(q.values) ** 2)
    return abs(2.0 * kin - dd) / (2.0 * kin)


def gn_ratio(f: Field) -> float:
    """Interpolation quotient D(|f|^2) / (|| |grad|^{1/2} f ||_2^2 ||f||_2^2).

    Bounded by C_opt over all fields, with equality exactly at ground states.
    """
    m = mass(f)
    if m == 0.0:
        raise ZeroField("gn_ratio undefined for the zero field")
    kern = kernel(f.grid, ModelParams())
    return kern.interaction(np.abs(f.values) ** 2) / (kern.homogeneous_half_sq(f.values) * m)

