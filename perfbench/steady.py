#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload over several
seeds and report every end-to-end metric's spread against its bound.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workload paper_report ...] [--first-seed 1]

Each run is a fresh ``run.py`` process with its own seed.  The spread is
the distance between the first and third quartile of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark aims for every spread, ``setup_s`` aside, to stay below a
third of the metric's bound.  Exits 1 when any run is incorrect or any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            began = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.perf_counter() - began)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {done.stdout.splitlines()[-2]}")
                status = 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {args.runs} runs, {sum(walls):.0f}s, "
              f"longest {max(walls):.1f}s")
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            if name != "setup_s" and spread > bounds[name]:
                status = 1
            print(f"  {name:22s} median {statistics.median(series):<12.5g} "
                  f"spread {spread:.3f} (bound {bounds[name]}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
