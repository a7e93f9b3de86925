"""The benchmark's workloads: their sizes, evolve configs and command lines.

All inputs are fixed by the sizes below.  The radial workloads take no random
input; `operator-lab` passes the benchmark's seed to `operator-check --seed`.
"""

WORKLOADS = ("blowup", "subcritical", "operator-lab")
RADIAL = ("blowup", "subcritical")

# checks that `diagnose` runs on each radial workload
DIAGNOSE_CHECKS = {
    "blowup": "all",
    "subcritical": "propagation,tightness,concentration,measure,newton,virial",
}

FULL = {
    "gs_grid": (4096, 128.0),
    "blowup_grid": (16384, 16.0),
    "blowup_stride": 2,
    "subcritical_grid": (4096, 128.0),
    "subcritical_t_end": 10.0,
    "subcritical_stride": 500,
    "lab_n": 384,
}

# tiny sizes for --smoke: the same commands and checks in a few seconds.  The
# ground state keeps its reference grid (it takes 0.1 s), since M_c is only
# within 1e-6 of its documented value once r_max reaches ~128; the blowup
# grid keeps the reference spacing dr ~ 1e-3, which the collapse needs.
SMOKE = {
    "gs_grid": (4096, 128.0),
    "blowup_grid": (4096, 8.0),
    "blowup_stride": 4,
    "subcritical_grid": (1024, 64.0),
    "subcritical_t_end": 1.0,
    "subcritical_stride": 50,
    "lab_n": 128,
}

LAB_S = 0.5


def evolve_config(kind, sizes, critical_mass, out_dir):
    """The `evolve` config of a radial workload, with u0 scaled from this run's M_c."""
    n, r_max = sizes[f"{kind}_grid"]
    if kind == "blowup":
        controls = {"dt0": 0.05, "t_end": 40.0, "cfl": 0.35, "dt_floor": 2.2e-4,
                    "snapshot_stride": sizes["blowup_stride"], "max_snapshots": 400,
                    "h_half_cap": 1e7}
        width, mass_ratio = 0.5, 1.2
    else:
        controls = {"dt0": 1e-3, "t_end": sizes["subcritical_t_end"], "cfl": 1.0,
                    "dt_floor": 1e-10, "snapshot_stride": sizes["subcritical_stride"],
                    "h_half_cap": 1e6}
        width, mass_ratio = 2.0, 0.5
    return {
        "command": "evolve",
        "grid": {"n_points": n, "r_max": r_max},
        "params": {"mass": 1.0},
        "controls": controls,
        "u0": {"kind": "gaussian", "amplitude": 1.0, "width": width,
               "mass": mass_ratio * critical_mass},
        "out_dir": out_dir,
    }


def ground_state_args(sizes, out_dir):
    n, r_max = sizes["gs_grid"]
    return ["ground-state", "--n", str(n), "--rmax", repr(r_max), "--out-dir", out_dir]


def diagnose_args(kind, run_dir, gs_json, out_dir):
    return ["diagnose", "--trajectory", run_dir, "--ground-state", gs_json,
            "--checks", DIAGNOSE_CHECKS[kind], "--out-dir", out_dir]


def operator_args(sizes, seed, out_dir):
    return ["operator-check", "--suite", "all", "--n", str(sizes["lab_n"]),
            "--s", repr(LAB_S), "--seed", str(seed), "--out-dir", out_dir]
