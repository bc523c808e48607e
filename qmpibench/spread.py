#!/usr/bin/env python3
"""Spread mode: runs one workload several times, with seeds 1, 2, ..., for
the run length in BENCHMARK.json, and prints each end-to-end metric's
median, quartiles and quartile spread as a share of the median, next to
the metric's bound.

Run from the root of a checkout:

    python3 qmpibench/spread.py --workload tfim_dense --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    failed_shares = {f / a for f, a in shares}
    print(f"\n{args.workload}: {args.runs} runs, failed shares {sorted(failed_shares)}")
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- over bound/3"
        print(f"{name:<24} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} "
              f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
