"""Set-up probe: import storedlight's command-line module from the checkout,
build one workload's inputs, and print the monotonic clock.  The caller takes
the clock before starting this interpreter, so the difference is the set-up
time from interpreter start.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import storedlight.cli  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
