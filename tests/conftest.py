"""Session fixtures: the reference ground state and the two benchmark runs.

These are the expensive shared objects; everything downstream (diagnostics
unit tests and the acceptance suite) reads them without re-running.  Build
wall times are stashed on the returned objects so the acceptance suite can
check its runtime budgets.
"""

import time

import numpy as np
import pytest

from bosonstar.evolution import EvolutionControls, evolve
from bosonstar.ground_state import solve_ground_state
from bosonstar.spectral import Field, ModelParams, RadialGrid, gaussian_field, mass
from oracles import free_evolution, trajectory_from_snapshots

ACCEPTANCE_GRID = RadialGrid(4096, 128.0)
BLOWUP_GRID = RadialGrid(16384, 16.0)


@pytest.fixture(scope="session")
def acceptance_gs():
    return solve_ground_state(ACCEPTANCE_GRID, tol=1e-10)


def make_subcritical_u0(gs, grid=ACCEPTANCE_GRID):
    u0 = gaussian_field(grid, 1.0, 2.0)
    return Field(grid, u0.values * np.sqrt(0.5 * gs.critical_mass / mass(u0)))


def make_blowup_u0(gs, grid=BLOWUP_GRID):
    u0 = gaussian_field(grid, 1.0, 0.5)
    return Field(grid, u0.values * np.sqrt(1.2 * gs.critical_mass / mass(u0)))


SUBCRITICAL_CONTROLS = EvolutionControls(
    dt0=1e-3, t_end=10.0, cfl=1.0, dt_floor=1e-10, snapshot_stride=20,
    h_half_cap=1e6)

BLOWUP_CONTROLS = EvolutionControls(
    dt0=0.05, t_end=40.0, cfl=0.35, dt_floor=2.2e-4, snapshot_stride=2,
    h_half_cap=1e7, max_snapshots=400)


@pytest.fixture(scope="session")
def subcritical_traj(acceptance_gs):
    u0 = make_subcritical_u0(acceptance_gs)
    t0 = time.time()
    traj = evolve(u0, ModelParams(1.0), SUBCRITICAL_CONTROLS)
    traj.build_seconds = time.time() - t0
    return traj


@pytest.fixture(scope="session")
def blowup_traj(acceptance_gs):
    u0 = make_blowup_u0(acceptance_gs)
    t0 = time.time()
    traj = evolve(u0, ModelParams(1.0), BLOWUP_CONTROLS)
    traj.build_seconds = time.time() - t0
    return traj


@pytest.fixture(scope="session")
def dilation_traj(acceptance_gs):
    """Exact free-flow run of a broadband pulse; sweeps the dilation cutoffs."""
    grid = ACCEPTANCE_GRID
    u0 = gaussian_field(grid, 1.0, 1.0)
    u0 = Field(grid, u0.values * np.sqrt(acceptance_gs.critical_mass / mass(u0)))
    times = 0.25 * np.arange(161)
    fields = [u0] + [free_evolution(u0, ModelParams(0.0), t) for t in times[1:]]
    return trajectory_from_snapshots(fields, times, ModelParams(0.0))
