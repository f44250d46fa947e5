"""Time one cold set-up: import knotid in a fresh interpreter and prepare a
workload's inputs. Prints the seconds taken. ``run.py`` starts this several
times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORK_DIR
"""

import os
import sys
from time import perf_counter

import workloads


def main(argv: list) -> int:
    name, seed, size, work_dir = argv
    started = perf_counter()
    cli = workloads.load_cli(os.getcwd())
    workloads.make(name, cli, int(seed), size, False).prepare(work_dir)
    print(repr(perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
