#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload emu-churn --seeds 5
    python3 perfbench/spread.py --seeds 10 --first-seed 101  # every workload

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles from statistics.quantiles(values, n=4).  A benchmark is
steady when every spread, setup_s aside, stays below a third of the
metric's bound.  Results are appended as JSON lines to --log when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", trace]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, "0")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                steady = False
            runs.append(result["metrics"])
            if args.log:
                with args.log.open("a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
        print(f"== {workload}: {len(runs)} runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run[name]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            limit = metric["bound"] / 3
            flag = "ok" if spread < limit or name == "setup_s" else "WIDE"
            steady = steady and flag == "ok"
            print(f"  {name:20s} median {q2:14.6g} {metric['unit']:6s} "
                  f"spread {spread:7.4f} (< {limit:.4f}) {flag}  "
                  f"min {min(values):.6g} max {max(values):.6g}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
