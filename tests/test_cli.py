import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import bosonstar
from bosonstar import diagnostics, evolution, operator_lab
from bosonstar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_WORKER_FAILED,
    load_ground_state_json,
    main,
    run,
)
from bosonstar.config import (
    ARTIFACT_VERSION,
    ParseError,
    Tolerances,
    ValidationError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    file_digest,
    read_config,
    verify_manifest,
)
from bosonstar.diagnostics import virial_check
from bosonstar.evolution import load_trajectory
from bosonstar.spectral import Field, RadialGrid, field_to_json, gaussian_field


def write_config(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def redigest(run_dir):
    """Rewrite the digests of run_dir's manifest to match its files, so only a reader's own
    checks can reject them."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["digests"] = {rel: file_digest(run_dir / rel) for rel in manifest["digests"]}
    path.write_text(canonical_json(manifest))
    assert verify_manifest(run_dir)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 256-point ground state and a short 256-point trajectory, each with a manifest."""
    base = tmp_path_factory.mktemp("small_run")
    assert main(["--out-dir", str(base / "gs"), "--quiet", "ground-state",
                 "--n", "256", "--rmax", "32", "--tol", "1e-8"]) == EXIT_OK
    ev_config = write_config(base / "ev.json", {
        "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
        "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10, "snapshot_stride": 2},
        "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
        "out_dir": str(base / "ev")})
    assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
    return str(base / "gs" / "ground_state.json"), str(base / "ev")


class TestConfigValidation:
    def test_minimal_valid_config_fills_defaults(self):
        cfg = config_from_dict({"command": "ground-state"})
        assert cfg.grid["n_points"] == 4096
        assert cfg.tolerances.newton_slack == 1e-6
        # echo-serialization is canonical and stable
        assert canonical_json(config_to_dict(cfg)) == canonical_json(
            config_to_dict(config_from_dict(config_to_dict(cfg))))

    def test_negative_tol_names_field(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"command": "ground-state", "ground_state": {"tol": -1.0}})
        assert any("tol" in f for f in err.value.fields)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"command": "evolve", "grid": {"n_points": 64, "r_max": 8.0},
                              "unknown_knob": 3})
        assert any("unknown_knob" in f for f in err.value.fields)

    @pytest.mark.parametrize("section, key", [
        ("controls", "dt_zero"),
        ("diagnose", "bins"),  # tolerances.histogram_bins is the one knob
        ("controls", "resolved_width_cells"),  # tolerances.resolved_width_cells is the one knob
        ("tolerances", "boundary_mass_fraction"),  # read by nothing, so no knob
        ("controls", "include_nonlinearity"),  # evolve integrates the nonlinear equation only
        ("ground_state", "gamma"),  # solve_ground_state's default 3/2; nothing set another
        ("operator_check", "length"),  # PeriodicGrid1D's default 32; nothing set another
    ])
    def test_unknown_nested_key_rejected(self, section, key):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"command": "evolve", section: {key: 1}})
        assert err.value.fields == [f"{section}.{key} (unknown)"]

    def test_all_violations_listed(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"command": "nope", "params": {"mass": -2.0},
                              "ground_state": {"tol": 0.0}})
        joined = ",".join(err.value.fields)
        assert "command" in joined and "params.mass" in joined and "ground_state.tol" in joined

    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_config(path)

    def test_round_trip_bit_exact(self, tmp_path):
        data = {"command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
                "params": {"mass": 1.0},
                "controls": {"dt0": 1e-3, "t_end": 0.25, "dt_floor": 1e-9},
                "u0": {"kind": "gaussian", "amplitude": 0.6, "width": 1.7},
                "seed": 5}
        path = write_config(tmp_path / "c.json", data)
        cfg = config_from_dict(read_config(path))
        dumped = canonical_json(config_to_dict(cfg))
        cfg2 = config_from_dict(json.loads(dumped))
        assert canonical_json(config_to_dict(cfg2)) == dumped


class TestRunDispatch:
    def test_ground_state_run_and_manifest(self, tmp_path):
        cfg = config_from_dict({
            "command": "ground-state",
            "grid": {"n_points": 512, "r_max": 48.0},
            "ground_state": {"tol": 1e-9, "max_iter": 500},
            "out_dir": str(tmp_path / "gs"),
        })
        code, out_dir = run(cfg)
        assert code == EXIT_OK
        assert verify_manifest(out_dir)
        gs = load_ground_state_json(os.path.join(out_dir, "ground_state.json"))
        assert gs.critical_mass == pytest.approx(2.6924, rel=1e-3)

    def test_determinism_identical_digests(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            cfg = config_from_dict({
                "command": "evolve",
                "grid": {"n_points": 256, "r_max": 32.0},
                "params": {"mass": 1.0},
                "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10,
                             "snapshot_stride": 5},
                "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
                "out_dir": str(tmp_path / name),
                "seed": 7,
            })
            code, out_dir = run(cfg)
            assert code == EXIT_OK
            digests.append(tuple(file_digest(os.path.join(out_dir, name)) for name in
                                 ("records.csv", "snapshots.json", "snapshots.npy")))
            assert verify_manifest(out_dir)
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                assert set(json.load(fh)["digests"]) == {"records.csv", "snapshots.json",
                                                         "snapshots.npy"}
        assert digests[0] == digests[1]

    def test_evolve_degenerate_horizon(self, tmp_path):
        cfg = config_from_dict({
            "command": "evolve",
            "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.0, "dt_floor": 1e-10},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(tmp_path / "degen"),
        })
        code, out_dir = run(cfg)
        assert code == EXIT_OK
        traj = load_trajectory(out_dir)
        assert traj.termination == "HorizonReached"
        assert len(traj.snapshots) == 1

    def test_ground_state_then_diagnose_pipeline(self, tmp_path):
        gs_cfg = config_from_dict({
            "command": "ground-state",
            "grid": {"n_points": 512, "r_max": 48.0},
            "ground_state": {"tol": 1e-9, "max_iter": 500},
            "out_dir": str(tmp_path / "gs"),
        })
        code, gs_dir = run(gs_cfg)
        assert code == EXIT_OK
        ev_cfg = config_from_dict({
            "command": "evolve",
            "grid": {"n_points": 512, "r_max": 32.0},
            "params": {"mass": 1.0},
            "controls": {"dt0": 5e-3, "t_end": 0.5, "dt_floor": 1e-10,
                         "snapshot_stride": 5},
            "u0": {"kind": "gaussian", "amplitude": 1.0, "width": 1.5, "mass": 1.0},
            "out_dir": str(tmp_path / "traj"),
        })
        code, traj_dir = run(ev_cfg)
        assert code == EXIT_OK
        dg_cfg = config_from_dict({
            "command": "diagnose",
            "params": {"mass": 1.0},
            "diagnose": {"trajectory": traj_dir,
                         "ground_state": os.path.join(gs_dir, "ground_state.json"),
                         "checks": "propagation,tightness,measure,newton"},
            "out_dir": str(tmp_path / "report"),
        })
        code, rep_dir = run(dg_cfg)
        assert code == EXIT_OK
        with open(os.path.join(rep_dir, "report.json")) as fh:
            report = json.load(fh)
        assert report["checks"]
        for rec in report["checks"]:
            assert set(rec) == {"check", "params", "statistic", "bound", "pass"}
            assert rec["pass"]

    def test_operator_check_run(self, tmp_path):
        cfg = config_from_dict({
            "command": "operator-check",
            "operator_check": {"suite": "commutator", "n": 64, "s": 0.5},
            "out_dir": str(tmp_path / "op"),
            "seed": 1,
        })
        code, out_dir = run(cfg)
        assert code == EXIT_OK
        assert verify_manifest(out_dir)


class TestMainEntry:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_VALIDATION

    def test_ground_state_cli(self, tmp_path, capsys):
        out = tmp_path / "gs.json"
        code = main(["--out-dir", str(tmp_path / "run"), "--quiet",
                     "ground-state", "--n", "256", "--rmax", "32",
                     "--tol", "1e-8", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["critical_mass"] == pytest.approx(2.692, rel=1e-2)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {"command": "evolve",
                                                    "controls": {"bogus": 1}})
        code = main(["evolve", "--config", str(path)])
        assert code == EXIT_VALIDATION

    def test_exterior_not_applicable_without_blowup(self, tmp_path):
        gs_json = tmp_path / "gs.json"
        assert main(["--out-dir", str(tmp_path / "gs"), "--quiet", "ground-state",
                     "--n", "256", "--rmax", "32", "--tol", "1e-8",
                     "--out", str(gs_json)]) == EXIT_OK
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10, "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(tmp_path / "ev")})
        assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
        report_json = tmp_path / "report.json"
        code = main(["--out-dir", str(tmp_path / "dg"), "--quiet", "diagnose",
                     "--trajectory", str(tmp_path / "ev"), "--ground-state", str(gs_json),
                     "--checks", "exterior", "--out", str(report_json)])
        assert code == EXIT_OK
        (rec,) = json.loads(report_json.read_text())["checks"]
        assert rec["check"] == "exterior_cauchy" and rec["pass"]
        assert rec["params"] == {"applicable": False, "termination": "HorizonReached"}

    @pytest.mark.parametrize("command", ["ground-state", "evolve", "diagnose", "operator-check"])
    def test_quiet_leaves_stdout_empty(self, tmp_path, capsys, small_run, command):
        # main reads --quiet once, for the whole run; each command prints without it
        gs_json, traj_dir = small_run
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5}})
        args = {"ground-state": ["--n", "256", "--rmax", "32", "--tol", "1e-8"],
                "evolve": ["--config", ev_config],
                "diagnose": ["--trajectory", traj_dir, "--ground-state", gs_json,
                             "--checks", "tightness,newton"],
                "operator-check": ["--suite", "ims", "--n", "8"]}[command]
        for quiet in ([], ["--quiet"]):
            out_dir = str(tmp_path / f"run{len(quiet)}")
            assert main([*quiet, "--out-dir", out_dir, command, *args]) == EXIT_OK
            out, err = capsys.readouterr()
            assert (out == "") == bool(quiet) and err == ""

    def test_operator_check_cli(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path / "oc"), "--seed", "2",
                     "operator-check", "--suite", "ims", "--n", "64", "--s", "0.5"])
        assert code == EXIT_OK
        assert " >= bound=-1e-08" in capsys.readouterr().out  # a lower bound reads as one

    def test_a_check_that_cannot_run_prints_its_cause(self, tmp_path, capsys, small_run):
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 512, "r_max": 2.0},
            "controls": {"dt0": 1e-3, "t_end": 0.01, "dt_floor": 1e-10, "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 0.2},
            "out_dir": str(tmp_path / "ev")})
        assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
        code = main(["--out-dir", str(tmp_path / "dg"), "diagnose",
                     "--trajectory", str(tmp_path / "ev"), "--ground-state", small_run[0],
                     "--checks", "propagation"])
        assert code == EXIT_CHECK_FAILED
        # every bank radius lies beyond 0.9 r_max = 1.8, so the bank is empty
        assert capsys.readouterr().out.strip() == \
            "[FAIL] propagation_bound: no bank_radii entry lies below 0.9 r_max = 1.8"

    @pytest.mark.parametrize("damage", ["nonexistent", "missing_fields", "wrong_dtype",
                                        "ground_state_missing_key", "tampered_records",
                                        "missing_manifest", "removed_controls_key"])
    def test_unreadable_trajectory_exit_code(self, tmp_path, capsys, small_run, damage):
        traj_dir = tmp_path / "ev"
        gs_json = small_run[0]  # a readable ground state, unless the damage is to it
        if damage == "nonexistent":
            traj_dir = tmp_path / "absent"
        else:
            code, _ = run(config_from_dict({
                "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
                "controls": {"dt0": 1e-2, "t_end": 0.0, "dt_floor": 1e-10},
                "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
                "out_dir": str(traj_dir)}))
            assert code == EXIT_OK
            fields = traj_dir / "snapshots.npy"
            if damage == "missing_fields":
                fields.unlink()
            elif damage == "wrong_dtype":
                np.save(fields, np.load(fields).real)
            elif damage == "tampered_records":  # a repeated row: still a readable trajectory
                records = traj_dir / "records.csv"
                text = records.read_text()
                records.write_text(text + text.splitlines()[-1] + "\n")
            elif damage == "missing_manifest":
                (traj_dir / "manifest.json").unlink()
            elif damage == "removed_controls_key":  # written when evolve had a free-flow knob
                snap = traj_dir / "snapshots.json"
                payload = json.loads(snap.read_text())
                payload["controls"]["include_nonlinearity"] = True
                snap.write_text(json.dumps(payload))
                redigest(traj_dir)  # so the digest check does not fire first
            else:  # the trajectory is fine; the ground state parses but lacks its profile
                gs_json = tmp_path / "gs.json"
                gs_json.write_text(json.dumps({"critical_mass": 2.69}))
        code = main(["--out-dir", str(tmp_path / "dg"), "--quiet", "diagnose",
                     "--trajectory", str(traj_dir), "--ground-state", str(gs_json)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and "\n" not in err

    @pytest.mark.parametrize("damage, named", [
        ("records_header", "records.csv"), ("records_five_columns", "records.csv"),
        ("records_header_only", "records.csv"), ("indices_descending", "record_indices"),
        ("indices_beyond_rows", "record_indices"), ("indices_short_of_fields", "snapshots.npy")])
    def test_inconsistent_trajectory_rejected_on_load(self, tmp_path, capsys, small_run, damage,
                                                      named):
        # every file matches its manifest digest, so only the loader can tell
        gs_json, source = small_run
        traj_dir = tmp_path / "ev"
        shutil.copytree(source, traj_dir)
        records, snap = traj_dir / "records.csv", traj_dir / "snapshots.json"
        header, *rows = records.read_text().splitlines()
        payload = json.loads(snap.read_text())
        indices = payload["record_indices"]
        assert len(indices) > 2 and indices[-1] == len(rows) - 1
        if damage == "records_header":
            records.write_text("\n".join([header.replace("h_half", "h_one"), *rows, ""]))
        elif damage == "records_five_columns":
            records.write_text("\n".join([header, *(r.rsplit(",", 1)[0] for r in rows), ""]))
        elif damage == "records_header_only":
            records.write_text(header + "\n")
        elif damage == "indices_descending":
            payload["record_indices"] = indices[::-1]
        elif damage == "indices_beyond_rows":
            payload["record_indices"] = [*indices[:-1], len(rows)]
        else:  # one index fewer than the rows of snapshots.npy
            payload["record_indices"] = indices[:-1]
        snap.write_text(json.dumps(payload))
        redigest(traj_dir)
        code = main(["--out-dir", str(tmp_path / "dg"), "--quiet", "diagnose",
                     "--trajectory", str(traj_dir), "--ground-state", gs_json])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and named in err and "\n" not in err

    @pytest.mark.parametrize("critical_mass", [0, -1.0, "abc", True, None, float("nan"),
                                               float("inf")],
                             ids=["zero", "negative", "string", "bool", "null", "nan", "inf"])
    def test_ground_state_critical_mass_is_checked(self, tmp_path, capsys, small_run,
                                                   critical_mass):
        gs_json, traj_dir = small_run
        data = json.loads(pathlib.Path(gs_json).read_text())
        data["critical_mass"] = critical_mass
        bad = tmp_path / "gs.json"
        bad.write_text(json.dumps(data))
        code = main(["--out-dir", str(tmp_path / "dg"), "--quiet", "diagnose",
                     "--trajectory", traj_dir, "--ground-state", str(bad),
                     "--checks", "concentration"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and "critical_mass" in err and "\n" not in err

    def test_out_that_is_a_directory_rejected_before_the_run(self, tmp_path, capsys):
        out_dir = tmp_path / "od"
        code = main(["--quiet", "--out-dir", str(out_dir), "operator-check", "--suite", "ims",
                     "--n", "64", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "--out" in err and "\n" not in err
        assert not out_dir.exists()  # rejected before anything ran

    def test_out_that_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "od"
        code = main(["--quiet", "--out-dir", str(out_dir), "operator-check", "--suite", "ims",
                     "--n", "64", "--out", str(tmp_path / "file" / "r.json")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("output error:") and "\n" not in err
        assert verify_manifest(out_dir)  # the run itself finished and keeps its outputs

    @pytest.mark.parametrize("command", ["ground-state", "evolve", "diagnose", "operator-check"])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "below_file"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, small_run, command, under):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out_dir = str(blocker / under) if under else str(blocker)
        gs_json, traj_dir = small_run
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5}})
        args = {"ground-state": ["--n", "256", "--rmax", "32", "--tol", "1e-8"],
                "evolve": ["--config", ev_config],
                "diagnose": ["--trajectory", traj_dir, "--ground-state", gs_json],
                "operator-check": ["--suite", "ims", "--n", "8"]}[command]
        code = main(["--quiet", "--out-dir", out_dir, command, *args])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("output error:") and out_dir in err and "\n" not in err
        assert sorted(os.listdir(tmp_path)) == ["ev.json", "file"]  # nothing was written
        assert blocker.read_text() == "kept"

    def test_out_that_cannot_be_written_after_a_failed_check(self, tmp_path, capsys, small_run):
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 512, "r_max": 2.0},
            "controls": {"dt0": 1e-3, "t_end": 0.01, "dt_floor": 1e-10, "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 0.2},
            "out_dir": str(tmp_path / "ev")})
        assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "dg"
        code = main(["--quiet", "--out-dir", str(out_dir), "diagnose",
                     "--trajectory", str(tmp_path / "ev"), "--ground-state", small_run[0],
                     "--checks", "propagation", "--out", str(tmp_path / "file" / "r.json")])
        assert code == EXIT_VALIDATION  # the missing report outranks the failed check
        err = capsys.readouterr().err.strip()
        assert err.startswith("output error:") and "\n" not in err
        assert err.endswith(f"; its checks failed, see {out_dir / 'report.json'}")
        assert verify_manifest(out_dir)

    @pytest.mark.parametrize("command, flags, bad, field", [
        ("operator-check", ["--n", "7"], {}, "operator_check.n"),
        ("operator-check", ["--s", "-0.5"], {}, "operator_check.s"),
        ("operator-check", [], {"operator_check": {"length": -1}}, "operator_check.length"),
        ("operator-check", ["--seed", "-3"], {}, "seed"),
        ("ground-state", [], {"ground_state": {"seed_profile": "foo"}}, "ground_state.seed_profile"),
        ("ground-state", ["--seed-profile", "foo"], {}, "ground_state.seed_profile"),
        ("ground-state", [], {"ground_state": {"gamma": "x"}}, "ground_state.gamma"),
        ("ground-state", [], {"tolerances": {"bank_radii": 3}}, "tolerances.bank_radii"),
        ("ground-state", [], {"tolerances": {"cauchy_pad": "x"}}, "tolerances.cauchy_pad"),
        ("ground-state", [], {"tolerances": {"histogram_bins": 0}}, "tolerances.histogram_bins"),
        ("ground-state", [], {"tolerances": {"histogram_bins": 2.5}}, "tolerances.histogram_bins"),
        ("evolve", [], {"controls": {"max_snapshots": 0}}, "controls.max_snapshots"),
        ("evolve", [], {"controls": {"max_snapshots": 1}}, "controls.max_snapshots"),
        ("evolve", [], {"controls": {"dt_floor": 0}}, "controls.dt_floor"),
        ("evolve", [], {"controls": {"dt0": 1e-3, "dt_floor": 1e-3}}, "controls.dt0"),
        ("diagnose", ["--checks", "tightnes"], {}, "diagnose.checks"),
        ("diagnose", ["--checks", "newton,,virial"], {}, "diagnose.checks"),
        ("evolve", [], {"u0": {"kind": "gaussian", "amplitude": 0.5, "width": 0}}, "u0.width"),
        ("evolve", [], {"u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5, "mass": -1}},
         "u0.mass"),
        ("evolve", [], {"u0": {"kind": "gaussian", "amplitude": float("nan"), "width": 1.5}},
         "u0.amplitude"),
        ("evolve", [], {"u0": {"kind": "gaussian", "amplitude": 0, "width": 1.5}}, "u0.amplitude"),
        ("ground-state", [], {"grid": {"n_points": 256, "r_max": 10**400}}, "grid.r_max"),
        ("evolve", [], {"controls": {"t_end": float("inf")}}, "controls.t_end"),
        ("evolve", [], {"controls": {"h_half_cap": 0}}, "controls.h_half_cap"),
        ("ground-state", ["--n", "256"], {"grid": 5}, "grid"),
    ], ids=["lab_n_odd", "lab_s_negative", "lab_length_negative", "seed_negative",
            "seed_profile_unknown", "seed_profile_flag_unknown", "gamma_not_a_number",
            "bank_radii_not_a_list", "cauchy_pad_not_a_number", "histogram_bins_zero",
            "histogram_bins_not_an_int", "max_snapshots_zero",
            "max_snapshots_one", "dt_floor_zero", "dt0_not_above_floor", "unknown_check",
            "empty_check_name", "u0_width_zero",
            "u0_mass_negative", "u0_amplitude_nan", "u0_amplitude_zero", "r_max_too_large",
            "t_end_infinite", "h_half_cap_zero", "grid_not_an_object_with_a_grid_flag"])
    def test_rejected_when_the_config_is_read(self, tmp_path, capsys, command, flags, bad, field):
        out_dir = tmp_path / "out"
        controls = {"dt0": 1e-2, "t_end": 0.1, "dt_floor": 1e-10, **bad.pop("controls", {})}
        config = write_config(tmp_path / "c.json", {
            "command": command, "grid": {"n_points": 256, "r_max": 32.0}, "controls": controls,
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(out_dir), **bad})
        assert main(["--quiet", command, "--config", config, *flags]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err
        assert f" {field} (" in err
        assert not out_dir.exists()  # nothing ran

    @pytest.mark.parametrize("bad", [
        {"grid": {"n_points": 256, "r_max": 8.0},
         "u0": {"kind": "gaussian", "amplitude": 1.0, "width": 5.0}},
        {"u0": {"kind": "file", "file": "other_grid.json"}},
        {"u0": {"kind": "file", "file": "nan.json"}},
    ], ids=["unresolved_datum", "file_grid_mismatch", "file_nonfinite_sample"])
    def test_evolve_that_cannot_start_exit_code(self, tmp_path, capsys, bad):
        out_dir = tmp_path / "ev"
        if bad.get("u0", {}).get("kind") == "file":  # a resolved datum on another grid, or a NaN
            u0_json = tmp_path / bad["u0"]["file"]
            nan = u0_json.name == "nan.json"
            u0 = field_to_json(gaussian_field(RadialGrid(256, 32.0) if nan else RadialGrid(128, 16.0)))
            if nan:
                u0["values"][3][0] = float("nan")
            u0_json.write_text(json.dumps(u0))
            bad = {"u0": {"kind": "file", "file": str(u0_json)}}
        config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.1, "dt_floor": 1e-10},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(out_dir), **bad})
        assert main(["--quiet", "evolve", "--config", config]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and "\n" not in err
        assert not (out_dir / "manifest.json").exists()

    @pytest.mark.filterwarnings("error")  # a zero datum raises no RuntimeWarning either
    @pytest.mark.parametrize("scaled", [True, False], ids=["u0_mass", "unscaled"])
    @pytest.mark.parametrize("datum", ["zero_file", "underflowing_profile"])
    def test_zero_mass_datum(self, tmp_path, capsys, datum, scaled):
        if datum == "zero_file":
            u0_json = tmp_path / "zero.json"
            u0_json.write_text(json.dumps(field_to_json(
                Field(RadialGrid(256, 32.0), np.zeros(256, dtype=complex)))))
            u0 = {"kind": "file", "file": str(u0_json)}
        else:  # nonzero samples whose |u|^2 underflows to 0
            u0 = {"kind": "gaussian", "amplitude": 1e-200, "width": 1.5}
        out_dir = tmp_path / "ev"
        config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.1, "dt_floor": 1e-10},
            "u0": {**u0, **({"mass": 1.0} if scaled else {})}, "out_dir": str(out_dir)})
        code = main(["evolve", "--config", config])
        out, err = capsys.readouterr()
        if scaled:  # no factor scales a zero mass to u0.mass
            assert code == EXIT_VALIDATION
            assert err.startswith("input error: cannot scale u0") and err.count("\n") == 1
            assert not (out_dir / "manifest.json").exists()
        else:
            assert code == EXIT_OK and err == ""
            assert "mass drift = 0, energy drift = 0," in out

    @pytest.mark.parametrize("seed", ["same_grid", "missing", "other_grid"])
    def test_ground_state_from_a_seed_file(self, tmp_path, capsys, seed):
        seed_json = tmp_path / "seed.json"
        if seed != "missing":
            grid = RadialGrid(256, 32.0) if seed == "same_grid" else RadialGrid(128, 16.0)
            seed_json.write_text(json.dumps(field_to_json(gaussian_field(grid))))
        out_dir = tmp_path / "gs"
        code = main(["--quiet", "--out-dir", str(out_dir), "ground-state", "--n", "256",
                     "--rmax", "32", "--tol", "1e-8", "--seed-profile", f"file:{seed_json}"])
        if seed == "same_grid":
            assert code == EXIT_OK
            return
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and "\n" not in err
        assert not (out_dir / "manifest.json").exists()

    def test_diagnose_uses_the_trajectory_mass(self, tmp_path):
        # evolved at m = 1; diagnose gets no config, so its params.mass is the default 0
        gs_json = tmp_path / "gs.json"
        assert main(["--out-dir", str(tmp_path / "gs"), "--quiet", "ground-state",
                     "--n", "256", "--rmax", "32", "--tol", "1e-8",
                     "--out", str(gs_json)]) == EXIT_OK
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "params": {"mass": 1.0},
            "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10, "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(tmp_path / "ev")})
        assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
        report_json = tmp_path / "report.json"
        assert main(["--out-dir", str(tmp_path / "dg"), "--quiet", "diagnose",
                     "--trajectory", str(tmp_path / "ev"), "--ground-state", str(gs_json),
                     "--checks", "virial", "--out", str(report_json)]) == EXIT_OK
        (rec,) = json.loads(report_json.read_text())["checks"]
        traj = load_trajectory(str(tmp_path / "ev"))
        assert traj.params.mass == 1.0
        tol = Tolerances()
        expected = virial_check(traj, traj.params, tol.virial_envelope_slack,
                                tol.virial_residual)
        assert rec["check"] == "virial_envelope"
        assert rec["statistic"] == expected.statistic

    def test_cauchy_pad_moves_measure_bounds(self, tmp_path):
        gs_json = tmp_path / "gs.json"
        assert main(["--out-dir", str(tmp_path / "gs"), "--quiet", "ground-state",
                     "--n", "256", "--rmax", "32", "--tol", "1e-8",
                     "--out", str(gs_json)]) == EXIT_OK
        ev_config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10, "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(tmp_path / "ev")})
        assert main(["--quiet", "evolve", "--config", ev_config]) == EXIT_OK
        bounds = {}
        for pad in (1e-6, 3e-4):
            cfg = config_from_dict({
                "command": "diagnose", "tolerances": {"cauchy_pad": pad},
                "diagnose": {"trajectory": str(tmp_path / "ev"), "ground_state": str(gs_json),
                             "checks": "measure"},
                "out_dir": str(tmp_path / f"dg{pad}")})
            code, out_dir = run(cfg)
            assert code == EXIT_OK
            with open(os.path.join(out_dir, "report.json")) as fh:
                bounds[pad] = [r["bound"] for r in json.load(fh)["checks"]
                               if r["check"] == "measure_cauchy"]
        assert len(bounds[1e-6]) == 8  # bump and exterior at each of the four bank radii
        for lo, hi in zip(bounds[1e-6], bounds[3e-4]):
            assert hi - lo == pytest.approx(3e-4 - 1e-6, rel=1e-9)

    @pytest.mark.parametrize("case", ["ground_state", "operator_check", "diagnose",
                                      "given_flag_wins"])
    def test_unset_flags_keep_the_config(self, tmp_path, small_run, case):
        gs_json, traj_dir = small_run
        out = tmp_path / "out"
        if case == "ground_state":
            config = write_config(tmp_path / "c.json", {  # the subcommand names the command
                "grid": {"n_points": 256, "r_max": 32.0}, "ground_state": {"tol": 1e-8}})
            assert main(["--quiet", "--out-dir", str(out), "ground-state",
                         "--config", config]) == EXIT_OK
            gs = load_ground_state_json(out / "ground_state.json")
            assert (gs.q.grid.n_points, gs.q.grid.r_max) == (256, 32.0)
            grid = json.loads((out / "manifest.json").read_text())["config"]["grid"]
            assert grid == {"n_points": 256, "r_max": 32.0}
            return
        if case == "diagnose":
            config = write_config(tmp_path / "c.json", {
                "command": "diagnose", "diagnose": {
                    "trajectory": traj_dir, "ground_state": gs_json, "checks": "tightness"}})
            assert main(["--quiet", "--out-dir", str(out), "diagnose",
                         "--config", config]) == EXIT_OK
            checks = [r["check"] for r in json.loads((out / "report.json").read_text())["checks"]]
            assert checks == ["tightness"]
            return
        config = write_config(tmp_path / "c.json", {
            "command": "operator-check",
            "operator_check": {"suite": "ims", "n": 64, "s": 0.25}})
        flags = ["--n", "32"] if case == "given_flag_wins" else []
        assert main(["--quiet", "--out-dir", str(out), "operator-check",
                     "--config", config, *flags]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == (32 if flags else 64) and report["s"] == 0.25
        assert [r["check"] for r in report["checks"]] == ["ims_defect"]

    def test_diagnose_rejects_another_artifact_version(self, tmp_path, small_run, capsys):
        gs_json, _ = small_run
        traj_dir = tmp_path / "ev"
        code, _ = run(config_from_dict({
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.0, "dt_floor": 1e-10},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(traj_dir)}))
        assert code == EXIT_OK
        manifest_path = traj_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "0.0.1"  # the manifest itself is not digested
        manifest_path.write_text(canonical_json(manifest))
        assert verify_manifest(traj_dir)
        assert main(["--quiet", "--out-dir", str(tmp_path / "dg"), "diagnose",
                     "--trajectory", str(traj_dir), "--ground-state", gs_json]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("input error:") and "\n" not in err
        assert "version 0.0.1" in err and f"version {ARTIFACT_VERSION}" in err

    def test_diagnose_without_a_trajectory_exit_code(self, tmp_path, small_run, capsys):
        gs_json, _ = small_run
        assert main(["--quiet", "--out-dir", str(tmp_path), "diagnose",
                     "--ground-state", gs_json]) == EXIT_VALIDATION
        assert capsys.readouterr().err.strip() == \
            "input error: cannot read diagnose inputs: missing key 'trajectory'"

    def test_histogram_bins_reach_the_measure(self, tmp_path, small_run):
        gs_json, traj_dir = small_run
        cfg = config_from_dict({
            "command": "diagnose", "tolerances": {"histogram_bins": 16},
            "diagnose": {"trajectory": traj_dir, "ground_state": gs_json, "checks": "measure"},
            "out_dir": str(tmp_path)})
        code, out_dir = run(cfg)
        assert code == EXIT_OK
        with open(os.path.join(out_dir, "report.json")) as fh:
            assert len(json.load(fh)["measure_histogram"]["bin_edges"]) == 17

    def test_diagnose_prints_the_bound_direction(self, tmp_path, small_run, capsys):
        gs_json, traj_dir = small_run
        assert main(["--out-dir", str(tmp_path), "diagnose", "--trajectory", traj_dir,
                     "--ground-state", gs_json, "--checks", "tightness"]) == EXIT_OK
        assert " < bound=" in capsys.readouterr().out  # passes while r_star < r_max

    @pytest.mark.parametrize("same", ["path", "symlink"])
    def test_diagnose_into_its_trajectory_directory_rejected(self, tmp_path, capsys, small_run,
                                                             same):
        # the run's manifest would replace the trajectory's, which no longer guards it
        gs_json, _ = small_run
        traj_dir = tmp_path / "ev"
        code, _ = run(config_from_dict({
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.0, "dt_floor": 1e-10},
            "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5},
            "out_dir": str(traj_dir)}))
        assert code == EXIT_OK
        out_dir = traj_dir
        if same == "symlink":
            out_dir = tmp_path / "link"
            out_dir.symlink_to(traj_dir)
        assert main(["--quiet", "--out-dir", str(out_dir), "diagnose", "--trajectory",
                     str(traj_dir), "--ground-state", gs_json]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err
        assert "diagnose.trajectory (must differ from out_dir)" in err
        assert verify_manifest(traj_dir) and not (traj_dir / "report.json").exists()
        # the rule reads the config once the flags are in: --out-dir overrides the file's
        config = write_config(tmp_path / "dg.json", {
            "command": "diagnose", "out_dir": str(out_dir),
            "diagnose": {"trajectory": str(traj_dir), "ground_state": gs_json,
                         "checks": "tightness"}})
        assert main(["--quiet", "--out-dir", str(tmp_path / "dg"), "diagnose",
                     "--config", config]) == EXIT_OK

    def test_out_is_not_written_from_an_earlier_run(self, tmp_path):
        out_dir, stale = str(tmp_path / "od"), tmp_path / "stale.json"
        assert main(["--quiet", "--out-dir", out_dir, "operator-check", "--suite", "ims",
                     "--n", "64"]) == EXIT_OK
        assert main(["--quiet", "--out-dir", out_dir, "diagnose", "--trajectory",
                     str(tmp_path / "missing"), "--ground-state", str(tmp_path / "missing"),
                     "--out", str(stale)]) == EXIT_VALIDATION
        assert not stale.exists()
        # nor does the operator-check manifest vouch for the directory any longer
        assert not os.path.exists(os.path.join(out_dir, "manifest.json"))


class TestSchemaStability:
    def test_emitted_json_matches_shipped_schema(self, tmp_path):
        schema_path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "output_schemas.json"
        schema = json.loads(schema_path.read_text())
        gs_cfg = config_from_dict({
            "command": "ground-state", "grid": {"n_points": 256, "r_max": 32.0},
            "ground_state": {"tol": 1e-8, "max_iter": 500},
            "out_dir": str(tmp_path / "gs")})
        _, gs_dir = run(gs_cfg)
        gs_data = json.loads(pathlib.Path(gs_dir, "ground_state.json").read_text())
        assert set(schema["ground_state.json"]) <= set(gs_data)
        assert set(schema["field"]) <= set(gs_data["profile"])
        ev_cfg = config_from_dict({
            "command": "evolve", "grid": {"n_points": 256, "r_max": 32.0},
            "controls": {"dt0": 1e-2, "t_end": 0.1, "dt_floor": 1e-10,
                         "snapshot_stride": 2},
            "u0": {"kind": "gaussian", "amplitude": 0.4, "width": 1.5},
            "out_dir": str(tmp_path / "ev")})
        _, ev_dir = run(ev_cfg)
        snap = json.loads(pathlib.Path(ev_dir, "snapshots.json").read_text())
        assert set(schema["snapshots.json"]) == set(snap)  # nothing that records.csv derives
        fields = np.load(os.path.join(ev_dir, "snapshots.npy"), allow_pickle=False)
        assert fields.dtype == np.dtype(schema["snapshots.npy"]["dtype"])
        assert fields.shape == (len(snap["record_indices"]), snap["grid"]["n_points"])
        header = pathlib.Path(ev_dir, "records.csv").read_text().splitlines()[0].split(",")
        assert header == schema["records.csv.columns"]
        manifest = json.loads(pathlib.Path(ev_dir, "manifest.json").read_text())
        assert set(schema["manifest.json"]) <= set(manifest)
        assert manifest["version"] == schema["version"]


class TestNumericalFailureExit:
    def test_non_convergence_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "manifest.json").write_text("{}")  # an earlier run's
        code = main(["--quiet", "--out-dir", str(tmp_path / "bad"), "ground-state",
                     "--n", "256", "--rmax", "32", "--tol", "1e-14", "--max-iter", "2"])
        assert code == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip()  # printed with --quiet too
        assert err.startswith("numerical failure:") and "\n" not in err
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.filterwarnings("error")  # one message: NonFinite, and no overflow warnings
    def test_overflowing_datum_exit_code(self, tmp_path, capsys):
        # |u|^2 overflows: a non-finite first record, not a blowup flag
        out_dir = tmp_path / "ev"
        config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 1024, "r_max": 32.0},
            "u0": {"kind": "gaussian", "amplitude": 1e154, "width": 1.0},
            "out_dir": str(out_dir)})
        assert main(["--quiet", "evolve", "--config", config]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure: non-finite record") and "\n" not in err
        assert "mass=inf" in err
        assert not (out_dir / "manifest.json").exists()

    def test_failed_evolve_leaves_no_snapshots_npy(self, tmp_path):
        # the rows go to a temporary file that a failed run removes, not to snapshots.npy
        out_dir = tmp_path / "ev"
        config = write_config(tmp_path / "ev.json", {
            "command": "evolve", "grid": {"n_points": 1024, "r_max": 32.0},
            "u0": {"kind": "gaussian", "amplitude": 1e154, "width": 1.0},
            "out_dir": str(out_dir)})
        assert main(["--quiet", "evolve", "--config", config]) == EXIT_NUMERICAL
        assert os.listdir(out_dir) == []


def _killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerFailureExit:
    @pytest.mark.parametrize("command, worker", [
        ("evolve", "evolve's record worker"), ("diagnose", "diagnose's check worker"),
        ("operator-check", "operator-check's suite worker")])
    def test_a_killed_worker_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch, small_run,
                                                   command, worker):
        # the OOM killer's way to end a worker: no result and no exception, only a signal
        out_dir = tmp_path / "run"
        if command == "evolve":
            monkeypatch.setattr(evolution, "_take_records", _killed)
            args = ["--config", write_config(tmp_path / "ev.json", {
                "command": "evolve", "grid": {"n_points": 512, "r_max": 32.0},
                "controls": {"dt0": 1e-2, "t_end": 0.2, "dt_floor": 1e-10},
                "u0": {"kind": "gaussian", "amplitude": 0.5, "width": 1.5}})]
        elif command == "diagnose":  # --checks all runs virial in the worker
            monkeypatch.setattr(diagnostics, "virial_check", _killed)
            args = ["--trajectory", small_run[1], "--ground-state", small_run[0],
                    "--checks", "all"]
        else:  # --suite all runs the commutator suite in the worker, given one BLAS thread
            monkeypatch.setattr(operator_lab, "ONE_BLAS_THREAD", True)
            monkeypatch.setattr(operator_lab, "commutator_norm", _killed)
            args = ["--suite", "all", "--n", "64"]
        code = main(["--quiet", "--out-dir", str(out_dir), command, *args])
        assert code == EXIT_WORKER_FAILED
        assert capsys.readouterr().err == \
            f"worker failure: {worker} was killed by SIGKILL and returned no result\n"
        assert os.listdir(out_dir) == []  # no manifest, and no snapshots.npy(.partial)
        with pytest.raises(ChildProcessError):  # the worker is reaped
            os.waitpid(-1, os.WNOHANG)


class TestTolerancesTable:
    def test_all_slack_constants_positive(self):
        tol = Tolerances()
        for name in ("newton_slack", "cauchy_pad", "virial_residual",
                     "c_cal_propagation", "c_cal_commutator", "c_cal_subcritical"):
            assert getattr(tol, name) > 0

    def test_every_tolerance_is_read(self):
        # a field that no command reads is a knob that changes nothing; the
        # acceptance suite's own thresholds are constants of that suite
        import ast
        import dataclasses
        import pathlib

        import bosonstar

        paths = [p for p in pathlib.Path(bosonstar.__file__).parent.glob("*.py")
                 if p.name != "config.py"]
        read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)}
        assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in read] == []

    def test_tolerance_override_via_config(self):
        cfg = config_from_dict({"command": "ground-state",
                                "tolerances": {"newton_slack": 1e-5}})
        assert cfg.tolerances.newton_slack == 1e-5

    def test_an_acceptance_threshold_is_no_config_key(self, tmp_path, capsys):
        # the acceptance suite's thresholds are no command's settings
        out_dir = tmp_path / "gs"
        config = write_config(tmp_path / "c.json", {
            "command": "ground-state", "tolerances": {"pohozaev_tol": 1e-5},
            "out_dir": str(out_dir)})
        assert main(["--quiet", "ground-state", "--config", config]) == EXIT_VALIDATION
        assert capsys.readouterr().err.strip() == \
            "config error: invalid config fields: tolerances.pohozaev_tol (unknown)"
        assert not out_dir.exists()

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"command": "ground-state",
                              "tolerances": {"made_up_constant": 1.0}})


# imports only bosonstar.cli, evolves the blowup datum (1.2 M_c) at n = 16384 to t_end = argv[1],
# and prints the steps taken and the minor page faults of the stepping process and of the
# reaped record worker during evolve
FAULT_PROBE = """
import importlib, resource, sys
importlib.import_module(sys.argv[2])
from bosonstar.evolution import EvolutionControls, evolve
from bosonstar.spectral import Field, ModelParams, RadialGrid, gaussian_field, mass
grid = RadialGrid(16384, 16.0)
u0 = gaussian_field(grid, 1.0, 0.5)
u0 = Field(grid, u0.values * (1.2 * 2.69239443233 / mass(u0)) ** 0.5)
controls = EvolutionControls(dt0=0.05, t_end=float(sys.argv[1]), cfl=0.35, dt_floor=2.2e-4,
                             snapshot_stride=2, h_half_cap=1e7, max_snapshots=400)
faults = lambda who: resource.getrusage(who).ru_minflt
before = faults(resource.RUSAGE_SELF), faults(resource.RUSAGE_CHILDREN)
steps = len(evolve(u0, ModelParams(1.0), controls).records["t"]) - 1
print(steps, faults(resource.RUSAGE_SELF) - before[0], faults(resource.RUSAGE_CHILDREN) - before[1])
"""


def python(*args):
    """Run the interpreter in a fresh process that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(bosonstar.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestProcessEntry:
    """`python -m bosonstar`, the path a user takes: the import, sys.exit(main()) and the exit."""

    def test_importing_the_cli_freezes_the_imported_heap(self):
        # the interpreter's exit then skips traversing numpy, pocketfft and the package
        run = python("-c", "import gc, bosonstar.cli; print(gc.get_freeze_count())")
        assert run.returncode == 0 and int(run.stdout) > 10_000

    @pytest.mark.parametrize("module", ["bosonstar.cli", "bosonstar.evolution"])
    def test_steps_take_no_fresh_pages(self, module):
        # 20 more steps of the blowup datum at n = 16384 take under 10 minor page faults per
        # step in the stepping process and in the record worker, whether the process imports
        # the commands or only the library.  Each run is a fresh process, so both pay the same
        # start-up (about 2,150 and 1,150 faults); a second evolve in one process would reuse
        # the first one's kernel and heap, and so understate the steps.
        def faults(t_end):
            run = python("-c", FAULT_PROBE, repr(t_end), module)
            assert run.returncode == 0, run.stderr
            return tuple(map(int, run.stdout.split()))

        (steps_a, stepper_a, worker_a), (steps_b, stepper_b, worker_b) = faults(0.3), faults(1.0)
        assert (steps_a, steps_b) == (7, 27)
        assert stepper_b - stepper_a < 10 * (steps_b - steps_a)
        assert worker_b - worker_a < 10 * (steps_b - steps_a)

    def test_a_passing_check_exits_0_with_its_line_last(self, tmp_path):
        out_dir = tmp_path / "od"
        run = python("-m", "bosonstar", "operator-check", "--suite", "ims", "--n", "64",
                     "--out-dir", str(out_dir))
        assert run.returncode == EXIT_OK and run.stderr == ""
        assert run.stdout.splitlines()[-1].strip().startswith("[PASS] ims_defect: ")
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "report.json"]
        assert verify_manifest(out_dir)

    def test_a_config_error_exits_2_with_one_line(self):
        run = python("-m", "bosonstar", "evolve")
        assert run.returncode == EXIT_VALIDATION and run.stdout == ""
        assert run.stderr.splitlines() == ["config error: evolve requires --config <json>"]
