#!/usr/bin/env python3
"""pursuitlab benchmark entry point.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep-pinned,deep-noisy,rip-cap}
        [--seed 7] [--seconds 20] [--trace 0|1]

The program is always imported from src/ of the checkout the script sits
in; without that source the run exits with status 1 and prints no result.
See perfbench/bench.py for what a run measures and prints.
"""

import os
import sys
from pathlib import Path

# BLAS must be pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    if not (SRC / "pursuitlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'pursuitlab'}; "
                 "run from the root of a pursuitlab checkout")
    # Replaces the script directory, whose module names would shadow the package's.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import pursuitlab
    if Path(pursuitlab.__file__).resolve().parent != SRC / "pursuitlab":
        sys.exit(f"perfbench: imported pursuitlab from {pursuitlab.__file__}, "
                 f"not from {SRC}")
    from perfbench import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
