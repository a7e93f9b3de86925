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

from dataclasses import dataclass

import numpy as np

from .spectral import (
    PROFILES,
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    energy,
    homogeneous_half_sq,
    interaction_energy,
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
    "energy_threshold_check",
]

DIVERGENCE_NORM = 1e12


class GroundStateError(Exception):
    """Base class for ground-state solver failures; carries the iterate history length."""

    def __init__(self, message, iterations):
        super().__init__(message)
        self.iterations = iterations


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


def _iterate(coeffs: np.ndarray, kern: RadialKernel, gamma: float):
    """One Petviashvili sweep on spectral coefficients; returns the new coefficients."""
    k = kern.k
    q = kern.inverse(coeffs).real
    nl_coeffs = kern.forward(kern.potential(q * q) * q)
    num = float(np.sum((k + 1.0) * np.abs(coeffs) ** 2))
    den = float(np.real(np.sum(np.conj(coeffs) * nl_coeffs)))
    if den <= 0:
        raise DivergentIterate("nonlinear pairing lost positivity", 0)
    return (num / den) ** gamma * nl_coeffs / (k + 1.0)


def solve_ground_state(grid: RadialGrid, tol: float = 1e-10, max_iter: int = 2000,
                       gamma: float = 1.5, seed: Field | str = "gaussian") -> GroundState:
    """Run the normalized fixed-point iteration until the H^{1/2} update stalls below tol.

    seed may be a Field or a name in spectral.PROFILES.  Raises NonConvergence when
    max_iter is exhausted and DivergentIterate when an iterate norm passes 1e12.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(seed, str):
        if seed not in PROFILES:
            raise ValueError(f"unknown seed profile {seed!r}")
        seed = PROFILES[seed](grid)
    kern = kernel(grid)
    coeffs = kern.forward(seed.values).real.astype(np.complex128)
    update = np.inf
    for it in range(1, max_iter + 1):
        new_coeffs = _iterate(coeffs, kern, gamma)
        wold = np.sqrt(np.sum(kern.h_half_weight * np.abs(coeffs) ** 2))
        wdiff = np.sqrt(np.sum(kern.h_half_weight * np.abs(new_coeffs - coeffs) ** 2))
        update = wdiff / wold
        coeffs = new_coeffs
        norm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
        if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise DivergentIterate(f"iterate norm {norm:.3e} after {it} sweeps", it)
        if update < tol:
            break
    else:
        raise NonConvergence(f"update {update:.3e} > tol {tol:.3e} after {max_iter} sweeps", max_iter)

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
    kern = kernel(q.grid)
    lin = kern.inverse((kern.k + 1.0) * kern.forward(q.values))
    qv = q.values.real
    res = lin - kern.potential(qv * qv) * q.values
    return float(np.linalg.norm(res * kern.r) / np.linalg.norm(q.values * kern.r))


def pohozaev_residual(q: Field) -> float:
    """Relative defect of the dilation identity 2||grad^{1/2}Q||^2 = D(|Q|^2)."""
    kin = homogeneous_half_sq(q)
    dd = interaction_energy(q)
    return abs(2.0 * kin - dd) / (2.0 * kin)


def gn_ratio(f: Field) -> float:
    """Interpolation quotient D(|f|^2) / (|| |grad|^{1/2} f ||_2^2 ||f||_2^2).

    Bounded by C_opt over all fields, with equality exactly at ground states.
    """
    m = mass(f)
    if m == 0.0:
        raise ZeroField("gn_ratio undefined for the zero field")
    kin = homogeneous_half_sq(f)
    return interaction_energy(f) / (kin * m)


def energy_threshold_check(f: Field, gs: GroundState, params: ModelParams) -> dict:
    """Slack of the sharp energy lower bound E[f] >= (1/2)(1 - M[f]/M_c) ||grad^{1/2}f||^2."""
    m = mass(f)
    kin = homogeneous_half_sq(f)
    e = energy(f, params)
    bound = 0.5 * (1.0 - m / gs.critical_mass) * kin
    return {
        "energy": e,
        "mass": m,
        "bound": bound,
        "slack": e - bound,
    }
