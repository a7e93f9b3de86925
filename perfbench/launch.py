"""Run one bosonstar command as `python -m bosonstar` does, stamping the end of its import.

Usage: python3 launch.py STAMP_FILE [bosonstar arguments...]

The stamp file receives time.monotonic() taken right after `bosonstar.cli` is
imported, so the caller can split the process's wall time into interpreter
start plus import, and the command itself.  CLOCK_MONOTONIC is system-wide on
Linux, so the stamp is comparable with the caller's own clock readings.
"""

import sys
import time

from bosonstar.cli import main

stamp = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(repr(stamp))
sys.exit(main(sys.argv[2:]))
