"""End-to-end benchmark of the bosonstar CLI, and the entry point of the traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload blowup --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run repeats whole rounds of its workload until --seconds have passed.  A
round runs the workload's commands one after another, each in a fresh
process, as a user runs them (see workloads.py and README.md), and checks
every command's output (checks.py).  The run reports the median over its
rounds of each end-to-end metric.  With --trace 1 the run instead makes one
traced pass (layers.py) and reports the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record goes to perfbench/_work/.

--smoke runs every workload once at tiny sizes, plus one traced pass, with
the same checks; it is the benchmark's own test and exits 0 only if all pass.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
LAUNCH = os.path.join(BENCH_DIR, "launch.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 1     # extra set-up samples per run, on top of one per round

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "main_s": "s",
                    "peak_rss_mb": "MB", "output_mb": "MB"}


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def check_source():
    """Fail fast unless the package is importable from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "bosonstar", "cli.py")):
        sys.exit(f"perfbench: no package at {SRC}/bosonstar; run from a full checkout")
    # the first import also writes the bytecode cache (unless disabled), as a user's first run does
    out = subprocess.run([sys.executable, "-c", "import bosonstar.cli; print(bosonstar.cli.__file__)"],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    where = out.stdout.strip()
    if out.returncode != 0 or not where.startswith(SRC + os.sep):
        sys.exit(f"perfbench: bosonstar.cli does not import from {SRC}: {out.stderr.strip()}")


class Command:
    """One CLI command run in a fresh process: its times, exit code, peak RSS and stdout."""

    def __init__(self, name, args, log_dir, timeout):
        self.name = name
        stamp_path = os.path.join(log_dir, name + ".stamp")
        log_path = os.path.join(log_dir, name + ".log")
        self.start = time.monotonic()
        with open(log_path, "w") as log:
            proc = subprocess.Popen([sys.executable, LAUNCH, stamp_path, *args],
                                    stdout=log, stderr=subprocess.STDOUT, env=child_env())
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        self.end = time.monotonic()
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        try:
            with open(stamp_path) as fh:
                self.stamp = float(fh.read())
        except (OSError, ValueError):
            self.stamp = None
        with open(log_path, errors="replace") as fh:
            self.stdout = fh.read()
        self.problems = [] if self.returncode == 0 else [f"exit code {self.returncode}"]
        if self.returncode == 0 and self.stamp is None:
            self.problems.append("no import stamp")

    @property
    def ok(self):
        return not self.problems

    def verify(self, check, *args):
        """Run an output check once the command has exited 0."""
        if self.ok:
            try:
                self.problems.extend(check(*args))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.problems.append(f"output unreadable: {exc!r}")


class Round:
    """Commands run back to back: one pass through a workload, or one set-up probe.

    Each command is one operation.  main_index names the command whose
    numerical work main_s times; set-up is everything before it plus its
    interpreter start and import.
    """

    def __init__(self, out_dir, main_index, n_ops):
        self.out_dir = out_dir
        self.main_index = main_index
        self.n_ops = n_ops
        self.commands = []
        self.start = time.monotonic()

    @property
    def failed(self):
        return self.n_ops - sum(c.ok for c in self.commands)

    @property
    def wrong(self):
        """Commands that exited 0 but whose output failed a check."""
        return [c for c in self.commands if c.returncode == 0 and c.problems]

    def setup_s(self):
        main = self.commands[self.main_index]
        return sum(c.end - c.start for c in self.commands[:self.main_index]) + main.stamp - main.start

    def metrics(self):
        main = self.commands[self.main_index]
        return {
            "wall_s": self.commands[-1].end - self.start,
            "setup_s": self.setup_s(),
            "main_s": main.end - main.stamp,
            "peak_rss_mb": max(c.peak_rss_mb for c in self.commands),
            "output_mb": tree_bytes(self.out_dir) / 1e6,
        }


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_round(kind, sizes, seed, round_dir, deadline, probe=False):
    """One pass through the workload's commands, checked after the last one ends.

    With probe=True it runs only the set-up part: the ground state on the radial
    workloads, then a main command that stops right after its import (--help).
    """
    out = os.path.join(round_dir, "out")
    logs = os.path.join(round_dir, "log")
    os.makedirs(out)
    os.makedirs(logs)

    def command(name, args):
        cmd = Command(name, args, logs, max(1.0, deadline - time.monotonic()))
        rnd.commands.append(cmd)
        return cmd

    if kind == "operator-lab":
        rnd = Round(out, main_index=0, n_ops=1)
        lab_dir = os.path.join(out, "lab")
        if probe:
            command("operator-check", ["operator-check", "--help"])
            return rnd
        lab = command("operator-check", workloads.operator_args(sizes, seed, lab_dir))
        lab.verify(checks.check_operator_report, os.path.join(lab_dir, "report.json"))
        return rnd

    rnd = Round(out, main_index=1, n_ops=2 if probe else 3)
    gs_dir, run_dir, diag_dir = (os.path.join(out, d) for d in ("gs", "run", "diagnose"))
    gs_json = os.path.join(gs_dir, "ground_state.json")
    gs = command("ground-state", workloads.ground_state_args(sizes, gs_dir))
    mc = None
    if gs.ok:
        try:
            mc = checks.critical_mass(gs_json)
        except (OSError, ValueError, KeyError) as exc:
            gs.problems.append(f"output unreadable: {exc!r}")
    if mc is not None and probe:
        command("evolve", ["evolve", "--help"])
    elif mc is not None:
        config_path = os.path.join(logs, "evolve.json")
        with open(config_path, "w") as fh:
            json.dump(workloads.evolve_config(kind, sizes, mc, run_dir), fh)
        ev = command("evolve", ["evolve", "--config", config_path])
        if ev.ok:
            dg = command("diagnose", workloads.diagnose_args(kind, run_dir, gs_json, diag_dir))
            dg.verify(checks.check_diagnose_report, os.path.join(diag_dir, "report.json"))
        if kind == "blowup":
            ev.verify(checks.check_blowup_run, run_dir, ev.stdout)
        else:
            ev.verify(checks.check_subcritical_run, run_dir, ev.stdout, sizes["subcritical_t_end"])
    gs.verify(checks.check_ground_state, gs_json)
    return rnd


def run_end_to_end(kind, sizes, seed, seconds, work_dir):
    """Whole rounds until `seconds` have passed, then the set-up probes.

    Each metric is the median over the complete rounds; setup_s is the median
    over those rounds and the probes together.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds, extra = [], []
    longest = 0.0
    while True:
        round_dir = os.path.join(work_dir, f"round{len(rounds)}")
        rnd = run_round(kind, sizes, seed, round_dir, deadline)
        rounds.append(rnd)
        if rnd.failed == 0:
            rnd.result = rnd.metrics()
            shutil.rmtree(round_dir)  # a failed round's files stay for inspection
        now = time.monotonic()
        longest = max(longest, now - rnd.start)
        if now - start >= seconds or now - start + 1.5 * longest > RUN_LIMIT_S:
            break
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe{i}")
        rnd = run_round(kind, sizes, seed, probe_dir, deadline, probe=True)
        extra.append(rnd)
        if rnd.failed == 0:
            rnd.result = {"setup_s": rnd.setup_s()}
            shutil.rmtree(probe_dir)
    good = [r.result for r in rounds if r.failed == 0]
    metrics = {}
    if good:
        metrics = {name: {"value": statistics.median(r[name] for r in good), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        setups = [r.result["setup_s"] for r in rounds + extra if r.failed == 0]
        metrics["setup_s"]["value"] = statistics.median(setups)
    detail = {
        "rounds": [{"probe": r in extra, "failed": r.failed, "metrics": getattr(r, "result", None),
                    "commands": {c.name: {"wall_s": c.end - c.start, "cpu_s": c.cpu_s,
                                          "import_s": c.stamp - c.start if c.stamp else None}
                                 for c in r.commands},
                    "problems": {c.name: c.problems for c in r.commands if c.problems}}
                   for r in rounds + extra],
    }
    return {
        "correct": not any(r.wrong for r in rounds + extra),
        "attempted": sum(r.n_ops for r in rounds + extra),
        "failed": sum(r.failed for r in rounds + extra),
        "metrics": metrics,
    }, detail


def machine_info():
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        pass
    from importlib import metadata
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def run_one(kind, sizes, seed, seconds, trace):
    work_dir = os.path.join(WORK, f"{kind}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if trace:
        import layers
        result, detail = layers.run_trace(kind, sizes, seed, work_dir, SRC)
    else:
        result, detail = run_end_to_end(kind, sizes, seed, seconds, work_dir)
    if result["failed"] == 0:
        shutil.rmtree(work_dir)
    record = {"workload": kind, "seed": seed, "seconds": seconds, "trace": trace,
              "sizes": sizes, "machine": machine_info(), "result": result, **detail}
    with open(os.path.join(WORK, f"result-{kind}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def smoke():
    ok = True
    for kind in workloads.WORKLOADS:
        result = run_one(kind, workloads.SMOKE, 1, 0, trace=False)
        print(kind, json.dumps(result))
        ok &= result["correct"] and result["failed"] == 0 and bool(result["metrics"])
    result = run_one("blowup", workloads.SMOKE, 1, 0, trace=True)
    print("trace", json.dumps(result))
    ok &= result["correct"] and result["failed"] == 0
    print("smoke", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload once")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    check_source()
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    result = run_one(args.workload, workloads.FULL, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
