"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts ``workloads.py`` in a fresh child process whose BLAS thread count
is fixed (not inherited), waits for it, and passes on its output and
exit code. The last line of standard output is the run's JSON result.
Run it from the root of a checkout: the package is imported from the
checkout's ``src``, never from an installed copy, so a directory
without the sources makes the run fail without printing a result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_mitbih", "train_scratch", "transfer_eval")

# One BLAS thread: on a 2-core machine it trained faster than two and
# gave the same checkpoint bytes. Set for the child, never inherited.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beatnet" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--blas-threads", threads]
    with subprocess.Popen(cmd, env=env, cwd=ROOT) as child:
        try:
            return child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
