"""One set-up as a user pays it: a fresh interpreter starts, imports
``qbarrier.cli`` and the benchmark's own modules, and builds the
workload's seeded grids.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TINY

Prints the import time of ``qbarrier.cli`` in seconds; the caller times
the whole process.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import qbarrier.cli  # noqa: E402,F401  (the import is what is being timed)
t1 = perf_counter()

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    WORKLOADS[name].make(seed, tiny)
    print(repr(t1 - t0))
