"""Set-up step of one run, in a fresh interpreter: import qifkit, generate
the workload's seeded inputs, validate them and write them.

Usage: python make_inputs.py WORKLOAD SEED OUT_DIR
"""

import sys
from pathlib import Path

from workloads import make_inputs

if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    make_inputs(workload, seed, out)
