"""Set-up of one workload in a fresh process, for the ``setup_s`` metric.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports egperm (and numpy), loads the checksummed catalog and builds the
workload's first round of inputs, then prints the input digest.  The
parent times the interval from starting this process to reading that line.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import Workload  # noqa: E402

if __name__ == "__main__":
    print(Workload(sys.argv[1], int(sys.argv[2])).digest, flush=True)
