"""Run every workload once, each in a fresh interpreter, and print each
run's report: every metric by name and unit, failed_frac and, for
capacity, capacity_gap_nats.

    python3 perfbench/report.py --seed 1 --seconds 20
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    workloads = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    for workload in (w["name"] for w in workloads):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        *report, last = done.stdout.splitlines() or [""]
        print("\n".join(report))
        if done.returncode != 0 or not json.loads(last)["correct"]:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
