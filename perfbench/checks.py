"""Correctness checks on the outputs of the benchmark's commands.

Every check comes from a documented constant or from a property the method
must have, never from a stored copy of an earlier run's output.  Each check
returns a list of problems; an empty list means the output is correct.  The
checks read the files through plain json/csv/hashlib and numpy, apart from
the package, so a fault in the package's own readers cannot hide a wrong
result.
"""

import csv
import glob
import hashlib
import json
import math
import os
import re

import numpy as np

# README "Numerical design": M_c = 2.69239443... on the reference grid (4096, 128)
CRITICAL_MASS = 2.69239443
CRITICAL_MASS_TOL = 1e-6
POHOZAEV_TOL = 1e-6          # Tolerances.pohozaev_tol
MASS_DRIFT_TOL = 1e-9        # every Strang substep is an L2 isometry
ENERGY_DRIFT_TOL = 1e-6      # subcritical run, Tolerances.energy_drift
BLOWUP_GROWTH_MIN = 10.0     # H^{1/2} growth of a blowup run
SUBCRITICAL_GROWTH_CAP = 5.0
LAB_LOWER_SLACK = -1e-8      # L_chi >= 0 and the IMS defect >= 0, up to rounding


def dst1(g):
    """Orthonormal type-I sine transform of g (length n-1), via one real FFT."""
    n = len(g) + 1
    ext = np.zeros(2 * n)
    ext[1:n] = g
    ext[n + 1:] = -g[::-1]
    return -np.fft.rfft(ext).imag[1:n] * math.sqrt(0.5 / n)


def pohozaev_defect(q, r_max):
    """Relative defect of 2 || |grad|^{1/2} Q ||^2 = D(|Q|^2) for a radial profile.

    q holds Q(r_j) at r_j = j dr, j = 1..n.  Both sides are evaluated in the
    sine basis of r*Q: the kinetic side is sum k |c_k|^2, and the Coulomb side
    is the Parseval form of the radial Poisson solve plus the exterior monopole.
    """
    n = len(q)
    dr = r_max / n
    r = dr * np.arange(1, n)
    k = (math.pi / r_max) * np.arange(1, n)
    weight = 4.0 * math.pi * dr
    c = math.sqrt(weight) * dst1(r * q[:-1])
    kinetic = float(np.sum(k * c * c))
    rho = q[:-1] ** 2
    total = weight * float(np.sum(rho * r * r))
    rho_tilde = dst1(r * rho)
    coulomb = weight * 4.0 * math.pi * float(np.sum(rho_tilde ** 2 / (k * k))) + total ** 2 / r_max
    return abs(2.0 * kinetic - coulomb) / (2.0 * kinetic)


def profile_mass(q, r_max):
    n = len(q)
    dr = r_max / n
    r = dr * np.arange(1, n + 1)
    return 4.0 * math.pi * dr * float(np.sum(q * q * r * r))


def ground_state_problems(mc, q, r_max):
    """M_c against the documented constant, and the Pohozaev identity recomputed here."""
    problems = []
    if not abs(mc - CRITICAL_MASS) < CRITICAL_MASS_TOL:
        problems.append(f"M_c = {mc!r} is not within {CRITICAL_MASS_TOL} of {CRITICAL_MASS}")
    m = profile_mass(q, r_max)
    if not abs(m - mc) <= 1e-12 * mc:
        problems.append(f"profile has mass {m!r}, reported M_c {mc!r}")
    defect = pohozaev_defect(q, r_max)
    if not defect < POHOZAEV_TOL:
        problems.append(f"Pohozaev defect {defect:.3g} >= {POHOZAEV_TOL}")
    return problems


def check_ground_state(path):
    with open(path) as fh:
        data = json.load(fh)
    profile = data["profile"]
    q = np.array([re_ for re_, _ in profile["values"]], dtype=np.float64)
    return ground_state_problems(data["critical_mass"], q, float(profile["grid"]["r_max"]))


def critical_mass(path):
    with open(path) as fh:
        return float(json.load(fh)["critical_mass"])


def read_records(run_dir):
    """Columns of records.csv, by header name."""
    with open(os.path.join(run_dir, "records.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=np.float64).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


_TERMINATION = re.compile(r'termination"?:?\s*"?([A-Za-z]+)')


def termination(run_dir, stdout):
    """Termination reason from the evolve command's output: its stdout, else its JSON files."""
    found = _TERMINATION.search(stdout)
    if found:
        return found.group(1)
    for path in sorted(glob.glob(os.path.join(run_dir, "*.json"))):
        with open(path, errors="replace") as fh:
            found = _TERMINATION.search(fh.read(1 << 16))
        if found:
            return found.group(1)
    return None


def check_manifest(run_dir):
    """Every digest in manifest.json matches the SHA-256 of its file."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        digests = json.load(fh)["digests"]
    if not digests:
        return ["manifest lists no outputs"]
    problems = []
    for rel, digest in digests.items():
        h = hashlib.sha256()
        with open(os.path.join(run_dir, rel), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if h.hexdigest() != digest:
            problems.append(f"digest of {rel} does not match the manifest")
    return problems


def _drift(col):
    return float(np.max(np.abs(col - col[0])) / abs(col[0]))


def check_blowup_run(run_dir, stdout):
    rec = read_records(run_dir)
    problems = []
    reason = termination(run_dir, stdout)
    if reason != "StepFloor":
        problems.append(f"termination {reason}, expected StepFloor")
    if not _drift(rec["mass"]) < MASS_DRIFT_TOL:
        problems.append(f"mass drift {_drift(rec['mass']):.3g}")
    growth = float(np.max(rec["h_half"]) / rec["h_half"][0])
    if not growth >= BLOWUP_GROWTH_MIN:
        problems.append(f"H^1/2 growth {growth:.3g} < {BLOWUP_GROWTH_MIN}")
    if not rec["energy"][0] < 0:
        problems.append(f"E[u0] = {rec['energy'][0]:.6g} is not negative")
    return problems + check_manifest(run_dir)


def check_subcritical_run(run_dir, stdout, t_end):
    rec = read_records(run_dir)
    problems = []
    reason = termination(run_dir, stdout)
    if reason != "HorizonReached":
        problems.append(f"termination {reason}, expected HorizonReached")
    if not abs(rec["t"][-1] - t_end) <= 1e-9 * t_end:
        problems.append(f"final t = {rec['t'][-1]!r}, expected {t_end}")
    if not _drift(rec["mass"]) < MASS_DRIFT_TOL:
        problems.append(f"mass drift {_drift(rec['mass']):.3g}")
    if not _drift(rec["energy"]) < ENERGY_DRIFT_TOL:
        problems.append(f"energy drift {_drift(rec['energy']):.3g}")
    growth = float(np.max(rec["h_half"]) / rec["h_half"][0])
    if not growth < SUBCRITICAL_GROWTH_CAP:
        problems.append(f"H^1/2 growth {growth:.3g} >= {SUBCRITICAL_GROWTH_CAP}")
    return problems + check_manifest(run_dir)


def check_diagnose_report(path):
    with open(path) as fh:
        json.load(fh)
    return []


def operator_problems(entries):
    """The lab's inequalities, read off the statistics (not the pass flags)."""
    by_name = {}
    for c in entries:
        by_name.setdefault(c["check"], []).append(c)
    problems = []
    for name in ("commutator_norm", "localization_spectrum_low", "ims_defect", "profile_count"):
        if name not in by_name:
            problems.append(f"report has no {name} entry")
    for c in by_name.get("commutator_norm", []):
        if not c["statistic"] <= c["bound"]:
            problems.append(f"commutator norm {c['statistic']:.6g} > bound {c['bound']:.6g}")
    for name in ("localization_spectrum_low", "ims_defect"):
        for c in by_name.get(name, []):
            if not c["statistic"] >= LAB_LOWER_SLACK:
                problems.append(f"{name} {c['statistic']:.3g} < {LAB_LOWER_SLACK}")
    for c in by_name.get("profile_count", []):
        if c["statistic"] != 2:
            problems.append(f"two-bump family split into {c['statistic']} profiles, expected 2")
    return problems


def check_operator_report(path):
    with open(path) as fh:
        return operator_problems(json.load(fh)["checks"])
