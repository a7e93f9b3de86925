"""Numerical laboratory for the L2-critical boson star equation in radial symmetry."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Field,
    ModelParams,
    RadialGrid,
    SpectralField,
    apply_multiplier,
    energy,
    hs_norm,
    inverse_radial_transform,
    mass,
    radial_transform,
)
