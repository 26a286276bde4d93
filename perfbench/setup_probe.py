"""Set-up probe for `run.py`: import jetcalc and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints CLOCK_MONOTONIC in nanoseconds once the inputs of the first round are
built; the parent subtracts the time it launched this interpreter.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports jetcalc)


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.WORKLOADS[name](seed, workdir)
    for i in range(workload.round_size):
        workload.make_input(i)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main()
