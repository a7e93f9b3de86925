import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bosonstar
from bosonstar import evolution
from bosonstar.evolution import (
    HORIZON_REACHED,
    NORM_CAP,
    STEP_FLOOR,
    EvolutionControls,
    NonFinite,
    SnapshotRows,
    Unresolved,
    evolve,
    h_minus1_rhs_bound,
    half_max_width,
    load_trajectory,
    save_trajectory,
)
from bosonstar.spectral import (
    Field,
    ModelParams,
    RadialGrid,
    RadialKernel,
    gaussian_field,
    kernel,
    mass,
)
from oracles import (
    free_evolution,
    hs_norm,
    random_smooth_field,
    reference_evolve,
    trajectory_bytes,
    trajectory_from_snapshots,
    zero_field,
)

GRID = RadialGrid(1024, 64.0)
P1 = ModelParams(1.0)
CALLER_MASK = os.sched_getaffinity(0)  # at collection, before any evolve has run


def strang_step(f, dt):
    """One RadialKernel.strang step of f's samples, as evolve takes it."""
    kern = kernel(GRID, P1)
    c, _ = kern.strang(kern.forward(f.values), dt)
    return Field(GRID, kern.inverse(c))


class TestStep:
    def test_zero_stays_zero(self):
        out = strang_step(zero_field(GRID), 1e-3)
        assert np.all(out.values == 0)

    def test_mass_isometry_per_step(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = random_smooth_field(GRID, rng)
            out = strang_step(f, 1e-3)
            assert abs(mass(out) - mass(f)) < 1e-13 * mass(f)

    def test_forced_constant_potential_oracle(self, monkeypatch):
        # with V = const the step is a global phase times the free flow,
        # assembled here from the two diagonal multipliers independently
        rng = np.random.default_rng(1)
        f = random_smooth_field(GRID, rng)
        c, dt = 0.37, 1e-3
        monkeypatch.setattr(RadialKernel, "potential", lambda kern, rho: np.full(len(rho), c))
        forced = strang_step(f, dt)
        oracle = free_evolution(f, P1, dt)
        oracle = Field(GRID, oracle.values * np.exp(1j * dt * c))
        err = np.linalg.norm(forced.values - oracle.values) / np.linalg.norm(f.values)
        assert err < 1e-12

    def test_nonfinite_raises(self, monkeypatch):
        # evolve stops at the first step whose coefficients are not finite
        def nan_step(kern, c, dt):
            return np.full_like(c, np.nan), np.zeros(len(c))

        monkeypatch.setattr(RadialKernel, "strang", nan_step)
        with pytest.raises(NonFinite, match="t=0.01, dt=0.01, mass=nan"):
            evolve(gaussian_field(GRID, 0.5, 2.0), P1, EvolutionControls(dt0=1e-2, t_end=0.1))

    def test_phase_memo_matches_a_fresh_kernel(self):
        # the kernel keeps the half-step phase of the last dt; a changed dt must not reuse it
        f = random_smooth_field(GRID, np.random.default_rng(2))
        kern = RadialKernel(GRID, P1)
        c = kern.forward(f.values)
        for dt in (1e-3, 7e-4, 1e-3, 1e-3):
            got, v = kern.strang(c, dt)
            want, w = RadialKernel(GRID, P1).strang(c, dt)
            assert np.array_equal(got, want) and np.array_equal(v, w)
            c = got

    def test_six_transforms_per_step(self, monkeypatch, tmp_path):
        # each transform appends one byte naming its process to one O_APPEND file, which the
        # forked record worker shares: s for the stepping process, w for the worker
        import bosonstar.spectral as spectral

        stepping, log = os.getpid(), tmp_path / "calls"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        def counted(*args, _sine=spectral._sine, **kwargs):
            os.write(fd, b"s" if os.getpid() == stepping else b"w")
            return _sine(*args, **kwargs)
        monkeypatch.setattr(spectral, "_sine", counted)
        f = gaussian_field(GRID, 0.5, 2.0)
        counts = {}
        try:
            for steps in (0, 5, 12):
                os.ftruncate(fd, 0)
                traj = evolve(f, P1, EvolutionControls(dt0=1e-3, t_end=steps * 1e-3, cfl=1.0,
                                                       dt_floor=1e-12))
                assert len(traj.records["t"]) == steps + 1
                calls = log.read_bytes()
                counts[steps] = (calls.count(b"s"), calls.count(b"w"))
        finally:
            os.close(fd)
        assert {steps: s + w for steps, (s, w) in counts.items()} == {
            0: 4, 5: 4 + 6 * 5, 12: 4 + 6 * 12}
        # start-up: forward, the first record's interaction and the first potential; then
        # per step the Strang pair and the Poisson pair while stepping, and in the worker
        # the record's inverse and its interaction
        assert counts == {0: (4, 0), 5: (4 + 4 * 5, 2 * 5), 12: (4 + 4 * 12, 2 * 12)}

    def test_nonpositive_dt_rejected(self):
        # evolve steps by at least dt_floor, which the controls require to be positive
        for bad in ({"dt_floor": 0.0}, {"dt_floor": -1e-9}, {"dt0": 0.0}):
            with pytest.raises(ValueError):
                EvolutionControls(**bad)


class TestEvolve:
    def test_records_monotone_times_and_mass_conservation(self):
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=1.0, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=10)
        traj = evolve(f, P1, controls)
        t = traj.records["t"]
        m = traj.records["mass"]
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(m - m[0])) < 1e-9 * m[0]

    def test_time_reversal(self):
        # a random datum scaled to mass 2.0 (0.74 M_c), so it does not collapse; at this
        # cfl the H^{1/2} rate sets every dt, and each direction takes about 100 steps
        rng = np.random.default_rng(3)
        f = random_smooth_field(GRID, rng)
        f = Field(GRID, f.values * np.sqrt(2.0 / mass(f)))
        controls = EvolutionControls(dt0=1e-3, t_end=0.05, cfl=3e-4, dt_floor=1e-12,
                                     snapshot_stride=1000)
        fwd = evolve(f, P1, controls)
        assert np.all(fwd.records["dt"][1:] < controls.dt0)
        back = evolve(Field(GRID, np.conj(fwd.fields[-1])), P1, controls)
        recovered = np.conj(back.fields[-1])
        assert np.linalg.norm(recovered - f.values) / np.linalg.norm(f.values) < 1e-8

    def test_degenerate_horizon(self):
        f = gaussian_field(GRID)
        controls = EvolutionControls(dt0=1e-2, t_end=0.0, cfl=1.0, dt_floor=1e-12)
        traj = evolve(f, P1, controls)
        assert traj.termination == HORIZON_REACHED
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_norm_cap_termination(self):
        f = gaussian_field(GRID, 1.0, 1.0)
        controls = EvolutionControls(dt0=1e-2, t_end=5.0, cfl=1.0, dt_floor=1e-12,
                                     h_half_cap=hs_norm(f, 0.5) * 0.99)
        traj = evolve(f, P1, controls)
        assert traj.termination == NORM_CAP

    def test_unresolved_datum_rejected(self):
        bad = Field(GRID, np.ones(GRID.n_points, dtype=complex))
        with pytest.raises(Unresolved):
            evolve(bad, P1, EvolutionControls(dt0=1e-2, t_end=0.1))

    def test_snapshot_thinning_keeps_endpoints(self):
        f = gaussian_field(GRID, 0.3, 2.0)
        controls = EvolutionControls(dt0=1e-2, t_end=2.0, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=1, max_snapshots=32)
        traj = evolve(f, P1, controls)
        assert len(traj.snapshots) <= 48
        assert traj.snapshots[0].t == 0.0
        assert traj.snapshots[-1].t == pytest.approx(2.0, abs=1e-12)
        # thinning drops whole snapshots: each kept row is the uncapped run's row
        full = evolve(f, P1, dataclasses.replace(controls, max_snapshots=10**6))
        assert [s.record_index for s in full.snapshots] == list(range(len(full.records["t"])))
        for i, s in enumerate(traj.snapshots):
            assert traj.fields[i].tobytes() == full.fields[s.record_index].tobytes()

    def test_max_snapshots_below_two_rejected(self):
        # a run keeps its first and last snapshot, so a cap of 1 cannot be met
        with pytest.raises(ValueError, match="first and last"):
            EvolutionControls(max_snapshots=1)

    def test_strang_order_on_short_run(self):
        # halving dt cuts the energy drift by about 4 (second order)
        f = gaussian_field(GRID, 0.8, 1.5)
        drifts = {}
        for dt in (2e-3, 1e-3):
            controls = EvolutionControls(dt0=dt, t_end=1.0, cfl=1.0, dt_floor=1e-12,
                                         snapshot_stride=1000)
            tr = evolve(f, P1, controls)
            e = tr.records["energy"]
            drifts[dt] = abs(e[-1] - e[0]) / abs(e[0])
        ratio = drifts[2e-3] / drifts[1e-3]
        assert 3.0 <= ratio <= 5.0


def collapsing_datum(grid=RadialGrid(2048, 16.0)):
    """The blowup run's Gaussian of width 0.5 at about 1.2 M_c, on a small grid."""
    u0 = gaussian_field(grid, 1.0, 0.5)
    return Field(grid, u0.values * np.sqrt(1.2 * 2.6924 / mass(u0)))


ONE_CPU_PROBE = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from bosonstar.evolution import EvolutionControls, evolve
from bosonstar.spectral import ModelParams, RadialGrid, gaussian_field
from oracles import reference_evolve, trajectory_bytes
u0, params = gaussian_field(RadialGrid(1024, 64.0), 0.5, 2.0), ModelParams(1.0)
controls = EvolutionControls(dt0=5e-3, t_end=0.3, cfl=1.0, dt_floor=1e-12, snapshot_stride=7)
mask = os.sched_getaffinity(0)
same = trajectory_bytes(evolve(u0, params, controls)) == trajectory_bytes(
    reference_evolve(u0, params, controls))
print(same, os.sched_getaffinity(0) == mask, len(mask))
"""


class TestRecordWorker:
    """evolve takes each step's record and snapshot row in a forked worker; the serial loop
    of oracles.reference_evolve is the reference it must match byte for byte."""

    @pytest.mark.parametrize("u0, controls, termination", [
        (gaussian_field(GRID, 0.5, 2.0),
         EvolutionControls(dt0=5e-3, t_end=0.5, cfl=1.0, dt_floor=1e-12, snapshot_stride=10),
         HORIZON_REACHED),
        (gaussian_field(GRID, 0.5, 2.0),  # thinned four times over its 13 rows
         EvolutionControls(dt0=1e-3, t_end=0.012, cfl=1.0, dt_floor=1e-12, snapshot_stride=1,
                           max_snapshots=4),
         HORIZON_REACHED),
        (collapsing_datum(),
         EvolutionControls(dt0=0.05, t_end=40.0, cfl=0.35, dt_floor=2e-3, snapshot_stride=2),
         STEP_FLOOR),
        (collapsing_datum(),
         EvolutionControls(dt0=0.05, t_end=40.0, cfl=0.35, dt_floor=1e-6, snapshot_stride=3,
                           h_half_cap=6.0),
         NORM_CAP),
    ], ids=["subcritical", "thinning", "step_floor", "norm_cap"])
    def test_matches_the_serial_reference(self, u0, controls, termination):
        got, want = evolve(u0, P1, controls), reference_evolve(u0, P1, controls)
        assert got.termination == termination and len(got.records["t"]) > 12
        assert trajectory_bytes(got) == trajectory_bytes(want)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_matches_the_serial_reference_on_one_cpu(self):
        # a process allowed one CPU pins nothing: the two processes share it
        src = pathlib.Path(bosonstar.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.path.dirname(__file__)]))
        run = subprocess.run([sys.executable, "-c", ONE_CPU_PROBE], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True", "True", "1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_worker_exception_reaches_the_caller(self, tmp_path, monkeypatch):
        # the worker raises at its ninth record (the tenth call; record 0 is the caller's),
        # while the caller is blocked writing: 200 steps of 16 KiB outgrow the 1 MiB pipe, so
        # the caller's write breaks, and it raises the worker's exception in its place
        push, calls = evolution._push_record, []

        def failing_push(*args):
            calls.append(1)
            if len(calls) == 10:
                raise ZeroDivisionError("record 10 of 201")
            return push(*args)
        monkeypatch.setattr(evolution, "_push_record", failing_push)
        controls = EvolutionControls(dt0=1e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=1)
        fds, mask = len(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)
        with pytest.raises(ZeroDivisionError, match="^record 10 of 201$"):
            evolve(gaussian_field(GRID, 0.5, 2.0), P1, controls, tmp_path / "snapshots.npy")
        assert os.listdir(tmp_path) == []
        with pytest.raises(ChildProcessError):  # the worker is reaped
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert os.sched_getaffinity(0) == mask == CALLER_MASK

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_returned_run_leaves_no_process_descriptor_or_pin(self, tmp_path):
        controls = EvolutionControls(dt0=1e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=1)
        fds, mask = len(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)
        traj = evolve(gaussian_field(GRID, 0.5, 2.0), P1, controls, tmp_path / "snapshots.npy")
        assert len(traj.snapshots) == 201
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == mask == CALLER_MASK
        del traj  # its store holds the snapshot file open
        assert len(os.listdir("/proc/self/fd")) == fds


class TestRhsBound:
    def test_zero_field(self):
        assert h_minus1_rhs_bound(zero_field(GRID), P1) == 0.0

    def test_finite_on_random(self):
        rng = np.random.default_rng(4)
        f = random_smooth_field(GRID, rng)
        val = h_minus1_rhs_bound(f, P1)
        assert np.isfinite(val) and val > 0

    def test_stable_along_subcritical_run(self, subcritical_traj):
        vals = [h_minus1_rhs_bound(s.field, subcritical_traj.params)
                for s in subcritical_traj.snapshots[:: max(1, len(subcritical_traj.snapshots) // 20)]]
        assert max(vals) / min(vals) < 2.0

    def test_h_half_continuity_guard(self, subcritical_traj):
        # resolved run: consecutive snapshots never jump by half their norm
        h = subcritical_traj.records["h_half"][[s.record_index for s in subcritical_traj.snapshots]]
        jumps = np.abs(np.diff(h)) / h[:-1]
        assert max(jumps) < 0.5

    def test_record_times_strictly_increasing_at_scale(self, blowup_traj):
        t = blowup_traj.records["t"]
        assert np.all(np.diff(t) > 0)
        snap_t = [s.t for s in blowup_traj.snapshots]
        assert np.all(np.diff(snap_t) > 0)

    def test_bounded_along_blowup_run(self, blowup_traj):
        res = blowup_traj.resolved_snapshots()
        vals = [h_minus1_rhs_bound(s.field, blowup_traj.params) for s in res]
        h = blowup_traj.records["h_half"]
        assert h[-1] / h[0] >= 10.0  # the norm does blow up ...
        assert max(vals) <= 3.0 * vals[0]  # ... while the right-hand side stays tame


class TestTrajectoryPlumbing:
    def test_save_load_round_trip(self, tmp_path):
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=5)
        traj = evolve(f, P1, controls)
        files = save_trajectory(traj, tmp_path)
        assert set(files) == {"records", "snapshots", "fields"}
        back = load_trajectory(tmp_path)
        assert back.termination == traj.termination
        assert back.controls == traj.controls
        assert np.allclose(back.records["t"], traj.records["t"], rtol=0, atol=0)
        assert len(back.snapshots) == len(traj.snapshots) > 1
        for s_back, s in zip(back.snapshots, traj.snapshots):
            assert s_back.field.values.dtype == np.complex128
            assert np.array_equal(s_back.field.values, s.field.values)
            assert (s_back.t, s_back.record_index, s_back.resolved) == \
                (s.t, s.record_index, s.resolved)

    @pytest.mark.parametrize("source", ["evolve", "load_trajectory", "trajectory_from_snapshots"])
    def test_fields_are_the_snapshots_npy_array(self, tmp_path, source):
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=5)
        traj = evolve(f, P1, controls)
        if source == "load_trajectory":
            save_trajectory(traj, tmp_path / "run")
            traj = load_trajectory(tmp_path / "run")
        elif source == "trajectory_from_snapshots":
            traj = trajectory_from_snapshots([s.field for s in traj.snapshots],
                                             [s.t for s in traj.snapshots], P1)
        fields = traj.fields
        assert len(fields) == len(traj.snapshots) > 1
        assert os.fstat(fields.fd).st_size == fields.offset + len(fields) * GRID.n_points * 16
        rows = [fields[i] for i in range(len(fields))]
        # each index reads a new read-only row, which a snapshot's Field keeps uncopied
        assert all(row.dtype == np.complex128 and row.shape == (GRID.n_points,)
                   and not row.flags.writeable for row in rows)
        assert fields[0] is not fields[0]
        assert fields[-1].tobytes() == rows[-1].tobytes()
        assert fields[-len(fields)].tobytes() == rows[0].tobytes()
        for beyond in (len(fields), -len(fields) - 1):
            with pytest.raises(IndexError):
                fields[beyond]
        for i, s in enumerate(traj.snapshots):
            assert s.field.values.base is None
            assert s.field.values.tobytes() == rows[i].tobytes()
        files = save_trajectory(traj, tmp_path / "saved")
        with open(files["fields"], "rb") as fh:
            saved = fh.read()
        np.save(tmp_path / "ref.npy", np.stack(rows))
        assert saved == (tmp_path / "ref.npy").read_bytes()

    @pytest.mark.parametrize("n", [4, 1024])
    @pytest.mark.parametrize("count", [1, 2, 9, 10, 99, 100, 513])
    @pytest.mark.parametrize("cap", [None, 8])
    def test_row_sink_file_is_np_save_of_the_kept_rows(self, tmp_path, n, count, cap):
        # rows arrive one at a time; with a cap, evolve's thinning rule compacts them
        rng = np.random.default_rng(count)
        rows = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        kept, path = [], tmp_path / "snapshots.npy"
        with SnapshotRows.create(RadialGrid(n, 1.0), path) as sink:
            for i, row in enumerate(rows):
                sink.append(row)
                kept.append(i)
                if cap is not None and len(kept) > cap:
                    keep_from = (3 * len(kept)) // 4
                    idx = [*range(0, keep_from, 2), *range(keep_from, len(kept))]
                    sink.keep(idx)
                    kept = [kept[j] for j in idx]
        assert (cap is not None and count > cap) == (len(kept) < count)
        np.save(tmp_path / "ref.npy", rows[kept])
        assert path.read_bytes() == (tmp_path / "ref.npy").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["ref.npy", "snapshots.npy"]  # no partial file
        assert [sink[i].tobytes() for i in range(len(sink))] == [r.tobytes() for r in rows[kept]]

    def test_blowup_file_is_np_save_of_its_rows(self, tmp_path, blowup_traj):
        fields = blowup_traj.fields
        stored = os.pread(fields.fd, os.fstat(fields.fd).st_size, 0)
        np.save(tmp_path / "ref.npy", np.stack([s.field.values for s in blowup_traj.snapshots]))
        assert stored == (tmp_path / "ref.npy").read_bytes()

    @pytest.mark.parametrize("failure", ["non_finite", "interrupted"])
    def test_failed_evolve_leaves_no_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "snapshots.npy"
        controls = EvolutionControls(dt0=5e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=1)
        if failure == "non_finite":  # |u|^2 overflows at the first record
            u0, error = Field(GRID, 1e154 * gaussian_field(GRID, 1.0, 2.0).values), NonFinite
        else:  # any exception after rows were written, here in the tenth record
            push, calls = evolution._push_record, []

            def failing_push(*args):
                calls.append(1)
                if len(calls) == 10:
                    raise KeyboardInterrupt
                return push(*args)
            monkeypatch.setattr(evolution, "_push_record", failing_push)
            u0, error = gaussian_field(GRID, 0.5, 2.0), KeyboardInterrupt
        with pytest.raises(error):
            evolve(u0, P1, controls, path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_the_store_leaks_no_file_descriptor(self, tmp_path):
        # each store closes its descriptor (os.dup'd by load_trajectory) when it is dropped,
        # and a failed evolve closes its own at once
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=0.05, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=2)
        before = len(os.listdir("/proc/self/fd"))
        for i in range(20):
            save_trajectory(evolve(f, P1, controls), tmp_path / "saved")
            load_trajectory(tmp_path / "saved")
            evolve(f, P1, controls, tmp_path / f"run{i}.npy")
        with pytest.raises(NonFinite):
            evolve(Field(GRID, 1e154 * f.values), P1, controls, tmp_path / "failed.npy")
        assert len(os.listdir("/proc/self/fd")) == before

    def test_save_skips_the_store_s_own_file(self, tmp_path):
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=0.2, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=5)
        traj = evolve(f, P1, controls, tmp_path / "snapshots.npy")
        before = os.stat(tmp_path / "snapshots.npy")
        files = save_trajectory(traj, tmp_path)
        after = os.stat(files["fields"])
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert sorted(os.listdir(tmp_path)) == ["records.csv", "snapshots.json", "snapshots.npy"]
        back = load_trajectory(tmp_path)
        assert [s.field.values.tobytes() for s in back.snapshots] == \
            [s.field.values.tobytes() for s in traj.snapshots]

    def test_save_streams_the_fields_a_row_at_a_time(self, tmp_path):
        grid = RadialGrid(4096, 64.0)
        controls = EvolutionControls(dt0=1e-3, t_end=0.063, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=1)
        traj = evolve(gaussian_field(grid, 0.5, 2.0), P1, controls)
        assert len(traj.snapshots) == 64
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            save_trajectory(traj, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 2 * 16 * grid.n_points  # 64 rows on file, at most two in memory

    def test_evolve_peak_does_not_grow_with_the_snapshots(self):
        grid = RadialGrid(4096, 64.0)
        u0 = gaussian_field(grid, 0.5, 2.0)
        kernel(grid, P1)  # the cached kernel is not part of the run's peak
        peaks = {}
        for stride in (1, 64):  # 64 snapshots, then the first and last only
            controls = EvolutionControls(dt0=1e-3, t_end=0.063, cfl=1.0, dt_floor=1e-12,
                                         snapshot_stride=stride)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                traj = evolve(u0, P1, controls)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[len(traj.snapshots)] = (peak - held) / (16 * grid.n_points)  # in rows
        assert set(peaks) == {64, 2}
        assert peaks[64] < 10 and peaks[64] - peaks[2] < 1

    def test_load_rejects_bad_or_missing_fields(self, tmp_path):
        f = gaussian_field(GRID, 0.5, 2.0)
        controls = EvolutionControls(dt0=5e-3, t_end=0.05, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=5)
        files = save_trajectory(evolve(f, P1, controls), tmp_path)
        fields = np.load(files["fields"])
        with open(files["fields"], "rb") as fh:
            good = fh.read()
        assert len(fields) > 1
        for bad in (fields[:, :-1], fields.astype(np.complex64), np.asfortranarray(fields)):
            np.save(files["fields"], bad)
            with pytest.raises(ValueError, match="expected"):
                load_trajectory(tmp_path)
        for cut in (good[:-16], good + bytes(16)):  # a truncated file, and one with a tail
            with open(files["fields"], "wb") as fh:
                fh.write(cut)
            with pytest.raises(ValueError, match="expected"):
                load_trajectory(tmp_path)
        os.remove(files["fields"])
        with pytest.raises(ValueError, match="missing"):
            load_trajectory(tmp_path)

    def test_synthetic_trajectory(self):
        prof = gaussian_field(GRID, 1.0, 1.0)
        times = [0.0, 0.1, 0.2]
        fields = [Field(GRID, np.exp(1j * w * t) * prof.values) for t in times for w in (2.0,)][:3]
        traj = trajectory_from_snapshots(fields, times, P1)
        assert len(traj.snapshots) == 3
        m = traj.records["mass"]
        assert np.max(np.abs(m - m[0])) < 1e-12 * m[0]

    def test_snapshot_records_match_evolve(self):
        # the same record code: rebuilding from the snapshots reproduces evolve's rows
        f = gaussian_field(GRID, 0.8, 1.5)
        controls = EvolutionControls(dt0=5e-3, t_end=0.5, cfl=1.0, dt_floor=1e-12,
                                     snapshot_stride=7)
        traj = evolve(f, P1, controls)
        rebuilt = trajectory_from_snapshots([s.field for s in traj.snapshots],
                                            [s.t for s in traj.snapshots], P1,
                                            controls=controls)
        idx = [s.record_index for s in traj.snapshots]
        assert len(idx) > 5
        for name in ("mass", "energy", "h_half", "boundary_mass"):
            np.testing.assert_allclose(rebuilt.records[name], traj.records[name][idx],
                                       rtol=1e-12, atol=0, err_msg=name)

    def test_half_max_width(self):
        f = gaussian_field(GRID, 2.0, 1.0)
        w = half_max_width(f)
        assert w == pytest.approx(np.sqrt(2 * np.log(2)), abs=2 * GRID.dr)
