"""Print the seconds a fresh interpreter takes to set up one workload.

    python3 perfbench/setup_probe.py sl5-table 1

Set-up is importing orbitchar (and its CLI, for the arrangements workload)
and building the root systems, weight systems, forms and hyperplanes that
the workload needs before its first LP.  It is too short to sample the host
during, so the figure is scaled to reference-host seconds (hostspeed.py) by
three kernel timings taken right after it.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), Path(".")).setup()
elapsed = time.perf_counter() - start

import hostspeed  # noqa: E402

print(elapsed * hostspeed.scale([hostspeed.calibrate() for _ in range(3)]))
