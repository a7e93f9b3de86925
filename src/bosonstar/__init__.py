"""Numerical laboratory for the L2-critical boson star equation in radial symmetry."""

__version__ = "0.1.0"

from .spectral import Field, ModelParams, RadialGrid, energy, mass  # noqa: F401
