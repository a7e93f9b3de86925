"""The benchmark's own test: `run.py --smoke` runs every workload at tiny sizes and passes.

Run with `python3 -m pytest perfbench` from the repository root; it takes
about 20 seconds and carries no timing gate.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke():
    out = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke PASS"
