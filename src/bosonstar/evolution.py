"""Time integration of the boson star equation with blowup-aware stepping.

Strang splitting: a half step of the free flow exp(-i dt/2 sqrt(-Delta+m^2))
in the sine basis, a full potential step exp(+i dt V_u) in physical space
(exact, since the phase rotation preserves |u|^2 and hence V_u), and another
free half step.  Every substep is an L2 isometry, so mass is conserved to
rounding; all splitting error is commutator error, O(dt^2).

The step size follows dt = min(dt0, cfl / max(||u||_{H^{1/2},hom}^2, max V_u)),
mirroring the rescaling by || |grad|^{1/2} u ||^2 that governs the blowup
scale: the phase rotation per step stays bounded as the solution focuses.
Hitting dt_floor is the operational "blowup suspected" flag; a state whose
record row is not finite raises NonFinite instead.

Snapshot samples live only in an .npy file, never all in memory: evolve appends
each kept row to the file as the row is produced (thinning compacts rows inside
it) and writes np.save's header when the run returns, and a SnapshotRows store
reads one row per index.  So evolve and diagnose hold O(n) plus one row, and the
reclaimable page cache holds the file.

evolve runs in two processes.  After record 0 it forks one record worker and
keeps stepping, sending each accepted step (t, dt, c) through a 1 MiB pipe; the
worker takes that step's samples, record row and snapshot row (written with
pwrite to the store's file) and, when the pipe closes, returns its record
columns or raises its exception in evolve.  The dt rule and the NormCap take
their H^{1/2} norms from |c|^2 by the function that gives the record its h_half.
The worker runs on the highest CPU of the caller's mask and the caller on the
others until the worker is reaped, and the caller's mask is then restored; with
one CPU in the mask, neither is pinned and the two share it.  The peak resident
memory is the larger of the two processes' (the worker starts as a copy of the
caller): 40.3-40.4 MB on the benchmark's blowup run, the stepping process's;
the worker peaks at 29.7-29.9 MB.  From Python 3.12 on, os.fork in a process with
threads (OpenBLAS starts some) emits a DeprecationWarning.

One helper, _forked, forks, pins, reaps and unpickles for both of the package's
workers: this record worker, and the one in which diagnostics.run_checks runs
the checks that transform u.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import io
import json
import math
import os
import pickle
import tempfile
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy_format

from .spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    abs2,
    dot,
    kernel,
)

__all__ = [
    "EvolutionControls",
    "Snapshot",
    "SnapshotRows",
    "Trajectory",
    "NonFinite",
    "Unresolved",
    "evolve",
    "require_resolved",
    "trajectory_from_snapshots",
    "h_minus1_rhs_bound",
    "half_max_width",
    "HORIZON_REACHED",
    "STEP_FLOOR",
    "NORM_CAP",
]

HORIZON_REACHED = "HorizonReached"
STEP_FLOOR = "StepFloor"
NORM_CAP = "NormCap"

RECORD_COLUMNS = ("t", "dt", "mass", "energy", "h_half", "boundary_mass")


class NonFinite(ArithmeticError):
    """A state of the run has a non-finite record row (NaN/Inf mass, energy or norm)."""


class Unresolved(ValueError):
    """The initial datum carries more than 1e-6 of its mass in the boundary zone."""


@dataclass(frozen=True)
class EvolutionControls:
    dt0: float = 1e-3
    t_end: float = 1.0
    cfl: float = 0.9
    dt_floor: float = 1e-9
    snapshot_stride: int = 100
    h_half_cap: float = 1e6
    max_snapshots: int = 512
    resolved_width_cells: float = 10.0

    def __post_init__(self):
        if not self.dt_floor > 0:
            raise ValueError("dt_floor must be positive")
        if not self.dt0 > self.dt_floor:
            raise ValueError("dt0 must exceed dt_floor")
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")
        if not (0 < self.cfl <= 1):
            raise ValueError("cfl must lie in (0, 1]")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if not self.h_half_cap > 0:
            raise ValueError("h_half_cap must be positive")
        if self.max_snapshots < 2:
            raise ValueError("max_snapshots must be >= 2: a run keeps its first and last snapshot")


_ROW_DTYPE = np.dtype(np.complex128)


def _npy_header(rows: int, n: int) -> bytes:
    """The header np.save writes for a C-order complex128 (rows, n) array; numpy pads it so
    that its length does not change as the row count grows."""
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(buf, {"descr": npy_format.dtype_to_descr(_ROW_DTYPE),
                                            "fortran_order": False, "shape": (rows, n)})
    return buf.getvalue()


class SnapshotRows:
    """The rows of a C-order complex128 (rows, grid.n_points) .npy file, one per snapshot.

    `rows[i]` (negative i too) reads row i into a new read-only array, so no row stays
    in memory.  The store keeps its file open and closes it when it is collected.  A
    store from `create` is a sink first: `append` and `keep` build the file, and
    leaving its `with` block writes the header, or removes the file on an exception.
    """

    def __init__(self, grid: RadialGrid, fd: int, offset: int, rows: int, rename=None):
        self.grid, self.fd, self.offset, self.rows = grid, fd, offset, rows
        self.row_nbytes = grid.n_points * _ROW_DTYPE.itemsize
        self._rename = rename  # (temporary path, path) of a sink given a path
        self._close = weakref.finalize(self, os.close, fd)

    @classmethod
    def create(cls, grid: RadialGrid, path=None) -> "SnapshotRows":
        """An empty sink: with a path, a sibling temporary file renamed to it on success;
        without, an anonymous file."""
        if path is None:
            fd, partial = tempfile.mkstemp()
            os.remove(partial)
        else:
            partial = f"{path}.partial"
            fd = os.open(partial, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        header = _npy_header(0, grid.n_points)
        os.pwrite(fd, header, 0)
        return cls(grid, fd, len(header), 0, None if path is None else (partial, path))

    @classmethod
    def open(cls, grid: RadialGrid, path, rows: int) -> "SnapshotRows":
        """The store of the .npy file at path; ValueError unless it holds a C-order
        complex128 (rows, grid.n_points) array and nothing past it."""
        with open(path, "rb") as fh:
            version = npy_format.read_magic(fh)
            read_header = (npy_format.read_array_header_1_0 if version == (1, 0)
                           else npy_format.read_array_header_2_0)
            shape, fortran_order, dtype = read_header(fh)
            expected = (rows, grid.n_points)
            offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
            expected_size = offset + rows * grid.n_points * _ROW_DTYPE.itemsize
            if (dtype, fortran_order, shape, size) != (_ROW_DTYPE, False, expected, expected_size):
                order = "Fortran" if fortran_order else "C"
                raise ValueError(f"{path} holds {order}-order {dtype} {shape} in {size} bytes, "
                                 f"expected C-order complex128 {expected}, one row per record "
                                 f"index, in {expected_size} bytes")
            return cls(grid, os.dup(fh.fileno()), offset, rows)

    def __len__(self) -> int:
        return self.rows

    def _at(self, i: int) -> int:
        return self.offset + i * self.row_nbytes

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(self.rows)[i]
        row = np.empty(self.grid.n_points, _ROW_DTYPE)
        if os.preadv(self.fd, [row], self._at(i)) != self.row_nbytes:
            raise OSError(f"the snapshot file ends inside row {i}")
        row.flags.writeable = False
        return row

    def _write(self, i: int, values: np.ndarray) -> None:
        row = np.ascontiguousarray(values, _ROW_DTYPE)
        if os.pwrite(self.fd, row, self._at(i)) != row.nbytes:
            raise OSError(f"short write of snapshot row {i}")

    def append(self, values: np.ndarray) -> None:
        self._write(self.rows, values)
        self.rows += 1

    def keep(self, indices: list) -> None:
        """Keep only the rows at the ascending indices, moved down in place."""
        for dst, src in enumerate(indices):  # ascending, so no row is overwritten unread
            if dst != src:
                self._write(dst, self[src])
        self.rows = len(indices)

    def __enter__(self) -> "SnapshotRows":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._close()
            if self._rename is not None:
                os.remove(self._rename[0])
            return
        os.pwrite(self.fd, _npy_header(self.rows, self.grid.n_points), 0)  # as long as before
        os.ftruncate(self.fd, self._at(self.rows))
        if self._rename is not None:
            os.replace(*self._rename)
            self._rename = None

    def save(self, path) -> None:
        """Write the file np.save would write for these rows to path, a row at a time;
        nothing when path is this store's own file."""
        if os.path.exists(path) and os.path.samestat(os.fstat(self.fd), os.stat(path)):
            return
        with open(path, "wb") as fh:
            fh.write(_npy_header(self.rows, self.grid.n_points))
            for i in range(self.rows):
                fh.write(self[i])


@dataclass(frozen=True)
class Snapshot:
    t: float
    record_index: int
    resolved: bool  # its half-max width spans at least controls.resolved_width_cells cells
    rows: SnapshotRows = dataclasses.field(repr=False)  # Trajectory.fields
    row: int  # this snapshot's row of it

    @property
    def field(self) -> Field:
        """This snapshot's samples, read from its row on each access."""
        return Field(self.rows.grid, self.rows[self.row])


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-accepted-step conserved-quantity records; `fields` is
    the SnapshotRows store of the snapshot samples, one row per snapshot and the only home
    of them: `evolve` appends each kept step to its file, and a check reads a row through
    its snapshot's `field`."""

    grid: RadialGrid
    params: ModelParams
    controls: EvolutionControls
    records: dict  # columns: t, dt, mass, energy, h_half, boundary_mass
    fields: SnapshotRows
    snapshots: list
    termination: str

    @property
    def initial_mass(self) -> float:
        return float(self.records["mass"][0])

    @property
    def initial_energy(self) -> float:
        return float(self.records["energy"][0])

    def resolved_snapshots(self) -> list:
        return [s for s in self.snapshots if s.resolved]

    @property
    def blowup_suspected(self) -> bool:
        """The paper's hypothesis on the grid, that u blows up in H^{1/2} at a finite time T:
        the run stopped at StepFloor.  The blowup-only checks read this and nothing else."""
        return self.termination == STEP_FLOOR


def half_max_width(f: Field) -> float:
    """Radius where |u| first drops below half of its peak (core width estimate)."""
    a = np.abs(f.values)
    peak = a.max()
    if peak == 0.0:
        return f.grid.r_max
    below = np.nonzero(a < 0.5 * peak)[0]
    ipk = int(np.argmax(a))
    below = below[below > ipk]
    if len(below) == 0:
        return f.grid.r_max
    return float(f.grid.r[below[0]])


def require_resolved(u0: Field, kern: RadialKernel) -> None:
    """Raise Unresolved unless u0 carries at most 1e-6 of its mass in kern's boundary zone."""
    rho = abs2(u0.values)
    m0 = kern.mass(rho)
    if m0 > 0 and kern.mass(rho, kern.grid.boundary_radius) > 1e-6 * m0:
        raise Unresolved("initial datum is not resolved: boundary mass exceeds 1e-6 of total")


def _coefficient_norms(kern: RadialKernel, power: np.ndarray) -> tuple[float, float]:
    """(h_half, sum k |c_k|^2) of the coefficient power |c|^2: the record's H^{1/2} norm and
    the squared homogeneous H^{1/2} norm of the dt rule, from one function so they agree."""
    return math.sqrt(dot(kern.h_half_weight, power)), dot(kern.k, power)


def _push_record(cols: dict, kern: RadialKernel, t: float, dt: float, u_vals: np.ndarray,
                 c_vals: np.ndarray) -> tuple[float, float]:
    """Append the row (t, dt, mass, energy, h_half, boundary_mass) of one state, from its
    samples and coefficients, to the record columns cols; returns its _coefficient_norms.
    Raises NonFinite, appending nothing, if the row is not finite, as it is whenever a
    coefficient is (the mass sums them all).

    Mass, kinetic energy and the H^{1/2} norm are sums over the coefficients;
    the interaction takes only the density transform (Parseval form).
    """
    rho = abs2(u_vals)
    power = abs2(c_vals)
    h_half, h_hom_sq = _coefficient_norms(kern, power)
    row = (t, dt, float(np.sum(power)), kern.energy(power, rho), h_half,
           kern.mass(rho, kern.grid.boundary_radius))
    if not all(map(math.isfinite, row)):
        raise NonFinite("non-finite record " + ", ".join(
            f"{name}={val:.6g}" for name, val in zip(RECORD_COLUMNS, row)))
    for name, val in zip(RECORD_COLUMNS, row):
        cols[name].append(val)
    return h_half, h_hom_sq


def _trajectory(grid: RadialGrid, params: ModelParams, controls: EvolutionControls, cols: dict,
                record_indices: list, fields: SnapshotRows, termination: str) -> Trajectory:
    """Package record columns and the snapshot rows `fields`, taken at `record_indices`;
    the one builder of a Snapshot, so its time and resolved flag are always derived."""
    records = {name: np.asarray(vals) for name, vals in cols.items()}
    min_width = controls.resolved_width_cells * grid.dr
    snapshots = []
    for row, rec_idx in enumerate(record_indices):
        resolved = bool(half_max_width(Field(grid, fields[row])) >= min_width)
        snapshots.append(Snapshot(t=float(records["t"][rec_idx]), record_index=rec_idx,
                                  resolved=resolved, rows=fields, row=row))
    return Trajectory(grid=grid, params=params, controls=controls, records=records,
                      fields=fields, snapshots=snapshots, termination=termination)


def _take_records(kern: RadialKernel, controls: EvolutionControls, cols: dict, snap_idx: list,
                  fields: SnapshotRows, steps) -> tuple:
    """The record worker's loop: for each step (t + i dt, c) read from the file steps, append
    its record row to cols and, on the stride, its samples to `fields`, thinned past
    controls.max_snapshots; at the end of the file, the last state's row too.  Returns the
    record columns, snap_idx and the row count."""
    step, steps_accepted = np.empty(kern.grid.n_points + 1, np.complex128), 0

    def push_snapshot(u_vals):
        fields.append(u_vals)
        snap_idx.append(steps_accepted)
        if len(snap_idx) > controls.max_snapshots:
            keep_from = (3 * len(snap_idx)) // 4
            rows = [*range(0, keep_from, 2), *range(keep_from, len(snap_idx))]
            fields.keep(rows)
            snap_idx[:] = [snap_idx[i] for i in rows]

    while steps.readinto(step) == step.nbytes:
        c = step[1:]
        u = kern.inverse(c)
        _push_record(cols, kern, float(step[0].real), float(step[0].imag), u, c)
        steps_accepted += 1
        if steps_accepted % controls.snapshot_stride == 0:
            push_snapshot(u)
    if snap_idx[-1] < steps_accepted:
        push_snapshot(u)
    return {name: np.asarray(vals) for name, vals in cols.items()}, snap_idx, fields.rows


@contextlib.contextmanager
def _forked(work, worker_fds=(), caller_fds=()):
    """Fork a worker that runs work(), and yield a list that holds, once the block has left,
    what work returned.  On leaving, reap the worker and raise the exception work raised,
    pickled back through a pipe; an exception of the block itself passes as it is, once the
    worker is reaped.  Of the caller's pipes, the worker's ends worker_fds close in this
    process after the fork, and this process's ends caller_fds close in the worker and, on
    leaving, here, before the worker is reaped; all of them close if the fork fails.

    While the worker lives, it is pinned to the highest CPU of this thread's mask and this
    thread to the others (unpinned, a pipe's wake-ups put both on one CPU); with one CPU in
    the mask, neither is pinned.  So work calls no threaded BLAS: after the caller has used
    OpenBLAS, a worker pinned to one CPU took 8 ms for an np.dot of 16384 entries and 16 ms
    for a 384^2 matmul, against microseconds and about 1 ms in the caller.  spectral.dot
    gives np.dot at most _DOT_SERIAL_MAX entries a call, which OpenBLAS runs on one thread.
    """
    cpus = os.sched_getaffinity(0)
    worker_cpu = max(cpus) if len(cpus) > 1 else None
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (results_r, results_w, *worker_fds, *caller_fds):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (results_r, *caller_fds):
                os.close(fd)
            if worker_cpu is not None:
                os.sched_setaffinity(0, {worker_cpu})
            try:
                outcome = work()
            except BaseException as exc:  # the caller raises it
                outcome = exc
            payload = pickle.dumps(outcome)  # before the write: a failure here sends nothing
            with open(results_w, "wb") as results:
                results.write(payload)
            status = 0
        finally:
            os._exit(status)
    for fd in (results_w, *worker_fds):
        os.close(fd)
    returned = []
    try:
        if worker_cpu is not None:
            os.sched_setaffinity(0, cpus - {worker_cpu})
        yield returned
    finally:
        for fd in caller_fds:
            os.close(fd)
        with open(results_r, "rb") as results:
            payload = results.read()
        _, status = os.waitpid(pid, 0)
        if worker_cpu is not None:
            os.sched_setaffinity(0, cpus)
    outcome = pickle.loads(payload) if payload else ChildProcessError(
        f"the worker exited with code {os.waitstatus_to_exitcode(status)} and no result")
    if isinstance(outcome, BaseException):
        raise outcome
    returned.append(outcome)


@contextlib.contextmanager
def _record_worker(kern: RadialKernel, controls: EvolutionControls, cols: dict, snap_idx: list,
                   fields: SnapshotRows):
    """Fork a worker (_forked) that runs _take_records, and yield the function that sends it
    one accepted step (t, dt, c).  On leaving, take what the worker returned into cols,
    snap_idx and fields, or raise the exception it raised; an exception of the block itself
    passes as it is."""
    step = np.empty(kern.grid.n_points + 1, np.complex128)  # (t + i dt, c)
    steps_r, steps_w = os.pipe()
    with contextlib.suppress(OSError):  # the default 64 KiB holds less than one n=4096 step
        fcntl.fcntl(steps_w, fcntl.F_SETPIPE_SZ, 1 << 20)

    def take():
        with open(steps_r, "rb") as steps:  # closed on any exit: the caller's write breaks
            return _take_records(kern, controls, cols, snap_idx, fields, steps)

    def send(t: float, dt: float, c: np.ndarray) -> None:
        step[0], step[1:] = complex(t, dt), c
        data = step.view(np.uint8)
        while len(data):
            data = data[os.write(steps_w, data):]

    with _forked(take, worker_fds=[steps_r], caller_fds=[steps_w]) as returned:
        # a write breaks when the worker has raised and stopped reading; _forked raises its exception
        with contextlib.suppress(BrokenPipeError):
            yield send
    records, snap_idx[:], fields.rows = returned[0]
    cols.update(records)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises NonFinite
def evolve(u0: Field, params: ModelParams, controls: EvolutionControls,
           fields_path=None) -> Trajectory:
    """Integrate from u0 with adaptive Strang stepping and per-step conservation records.

    Each kept snapshot row is appended to an .npy file as it is produced: with a
    `fields_path`, to a sibling temporary file renamed to it when the run returns and
    removed when it raises; without, to an anonymous file.  The records and snapshot
    rows after the first are taken in a forked worker (see the module docstring)."""
    grid = u0.grid
    kern = kernel(grid, params)
    require_resolved(u0, kern)
    cols = {name: [] for name in RECORD_COLUMNS}

    with SnapshotRows.create(grid, fields_path) as fields:
        u = u0.values
        c = kern.forward(u)
        _, h_hom_sq = _push_record(cols, kern, 0.0, 0.0, u, c)
        fields.append(u)
        snap_idx = [0]  # the record index of each kept snapshot, the rows of `fields`

        t = 0.0
        termination = HORIZON_REACHED
        v_ctrl = kern.potential(abs2(u))
        with _record_worker(kern, controls, cols, snap_idx, fields) as send:
            while t < controls.t_end - 1e-15 * max(1.0, controls.t_end):
                rate = max(h_hom_sq, float(np.max(v_ctrl)), 1e-300)
                dt = min(controls.dt0, controls.cfl / rate)
                if dt < controls.dt_floor:
                    termination = STEP_FLOOR
                    break
                if t + 1.05 * dt >= controls.t_end:
                    dt = controls.t_end - t  # absorb the float remainder into the last step

                c, v_ctrl = kern.strang(c, dt)
                t += dt
                send(t, dt, c)
                h_half, h_hom_sq = _coefficient_norms(kern, abs2(c))
                if not math.isfinite(h_half):
                    break  # the worker raises NonFinite on this step's row
                if h_half > controls.h_half_cap:
                    termination = NORM_CAP
                    break
    return _trajectory(grid, params, controls, cols, snap_idx, fields, termination)


def trajectory_from_snapshots(fields, times, params: ModelParams,
                              termination: str = HORIZON_REACHED,
                              controls: EvolutionControls | None = None) -> Trajectory:
    """Package explicitly constructed fields as a Trajectory (synthetic runs,
    exact free flows); records are computed from the snapshots as evolve computes them."""
    if len(fields) != len(times) or len(fields) < 1:
        raise ValueError("need matching, nonempty fields and times")
    grid = fields[0].grid
    if controls is None:
        controls = EvolutionControls(dt0=1.0, t_end=float(times[-1]) if times[-1] > 0 else 1.0)
    kern = kernel(grid, params)
    cols = {name: [] for name in RECORD_COLUMNS}
    with SnapshotRows.create(grid) as rows:
        for t, prev_t, f in zip(times, [0.0, *times[:-1]], fields):
            _push_record(cols, kern, float(t), float(t - prev_t), f.values,
                         kern.forward(f.values))
            rows.append(f.values)
    return _trajectory(grid, params, controls, cols, list(range(len(fields))), rows, termination)


def h_minus1_rhs_bound(u: Field, params: ModelParams) -> float:
    """H^{-1} norm of the equation's right-hand side sqrt(-Delta+m^2)u - V_u u.

    Uniform boundedness of this quantity along a trajectory is the discrete
    form of the a-priori bound on |d/dt u| that drives the weak-limit
    construction.
    """
    kern = kernel(u.grid, params)
    v = kern.potential(abs2(u.values))
    rhs = kern.omega * kern.forward(u.values) - kern.forward(v * u.values)
    return math.sqrt(dot(abs2(rhs), 1.0 / (1.0 + kern.k * kern.k)))


# --- persistence -------------------------------------------------------------

def save_trajectory(traj: Trajectory, out_dir) -> dict:
    """Write records as CSV, what cannot be derived from them as JSON and `traj.fields` as .npy.

    `snapshots.npy` holds one complex128 row per snapshot, in the order of the
    `record_indices` in `snapshots.json`, and is not rewritten when it is already the file
    of `traj.fields`; returns the file map.
    """
    os.makedirs(out_dir, exist_ok=True)
    rec_path = os.path.join(out_dir, "records.csv")
    with open(rec_path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for i in range(len(traj.records["t"])):
            fh.write(",".join(repr(float(traj.records[c][i])) for c in RECORD_COLUMNS) + "\n")
    snap_path = os.path.join(out_dir, "snapshots.json")
    payload = {
        "grid": {"n_points": traj.grid.n_points, "r_max": traj.grid.r_max},
        "params": {"mass": traj.params.mass},
        "termination": traj.termination,
        "controls": dataclasses.asdict(traj.controls),
        "record_indices": [s.record_index for s in traj.snapshots],
    }
    with open(snap_path, "w") as fh:
        json.dump(payload, fh)
    fields_path = os.path.join(out_dir, "snapshots.npy")
    traj.fields.save(fields_path)
    return {"records": rec_path, "snapshots": snap_path, "fields": fields_path}


def load_trajectory(out_dir) -> Trajectory:
    """The trajectory that save_trajectory wrote into out_dir, rebuilt by the builder of
    evolve; ValueError when records.csv, the record_indices or snapshots.npy do not fit."""
    with open(os.path.join(out_dir, "snapshots.json")) as fh:
        payload = json.load(fh)
    grid = RadialGrid(payload["grid"]["n_points"], payload["grid"]["r_max"])
    params = ModelParams(payload["params"]["mass"])
    controls = EvolutionControls(**payload["controls"])
    rec_path = os.path.join(out_dir, "records.csv")
    with open(rec_path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # rejected below
        header = fh.readline().rstrip("\n")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if header != ",".join(RECORD_COLUMNS) or not len(rows) or rows.shape[1] != len(RECORD_COLUMNS):
        raise ValueError(f"{rec_path} has header {header!r} and a {rows.shape} table, expected "
                         f"{','.join(RECORD_COLUMNS)!r} and rows of {len(RECORD_COLUMNS)}")
    indices = payload["record_indices"]
    if not (isinstance(indices, list) and indices and all(type(i) is int for i in indices)
            and all(a < b for a, b in zip([-1, *indices], [*indices, len(rows)]))):
        raise ValueError(f"record_indices must ascend strictly within the {len(rows)} record rows")
    fields_path = os.path.join(out_dir, "snapshots.npy")
    if not os.path.isfile(fields_path):
        raise ValueError(f"{fields_path} is missing (snapshots.json holds metadata only)")
    fields = SnapshotRows.open(grid, fields_path, len(indices))
    records = {c: rows[:, i] for i, c in enumerate(RECORD_COLUMNS)}
    return _trajectory(grid, params, controls, records, indices, fields, payload["termination"])
