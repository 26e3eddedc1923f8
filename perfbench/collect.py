"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                 [--trace 0|1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, and
reports for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. With --out
the summary is written as JSON together with the machine description
of the first run. A run that fails stops the collection.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace,
               "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{workload} seed {seed} failed", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        stats = {name: dict(spread(v), values=v) for name, v in values.items()}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            print(f"{workload:14s} {name:28s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        record = json.loads((HERE / "_work" / "results" / (
            f"{args.workloads.split(',')[0]}-seed{args.seeds[0]}"
            f"-trace{args.trace}.json")).read_text())
        summary["environment"] = record["environment"]
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
