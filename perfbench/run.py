"""Benchmark of rtkrylov, one workload per process.

    python3 perfbench/run.py --workload deep_sweeps --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the library is imported from its src/
directory, never from an installed copy. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. See perfbench/README.md for the workloads and the metrics.
"""

import time

T0 = time.perf_counter()  # the cold set-up is timed from here, before numpy is imported

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("deep_sweeps", "wide_dense")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "rtkrylov" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: threaded LAPACK spreads the dense eigensolver's time
    # several times wider from run to run on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), T0)


if __name__ == "__main__":
    sys.exit(main())
