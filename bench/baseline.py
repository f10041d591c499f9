"""Run every workload several times and record the baseline.

    python3 bench/baseline.py [--runs 10] [--write]

Runs bench/run.py once per seed 1..runs on each workload with tracing off,
then once with tracing on (seed 1).  Prints, for each end-to-end metric, the
median of the runs and their spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --write it stores the result in
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    out = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for spec_entry in spec["workloads"]:
        workload = spec_entry["name"]
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {"why": spec_entry["why"],
                 "correct": all(r["correct"] for r in runs),
                 "failed_share": [r["failed"] / r["attempted"] for r in runs],
                 "end_to_end": {}}
        print(f"{workload}  correct {entry['correct']}  "
              f"failed_share {statistics.median(entry['failed_share']):.6g}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"median": statistics.median(values), "unit": unit,
                                         "spread": spread(values), "bound": bound,
                                         "values": values}
            print(f"  {name:<14} median {statistics.median(values):>12.6g} {unit:<4} "
                  f"spread {spread(values):6.2%}  bound {bound:.0%}")
        traced = run_once(workload, 1, seconds, 1)
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
