#!/usr/bin/env python3
"""Run each workload N times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --runs 10 [--workloads serve-distinct,hub-fleet]
                                [--seconds 10] [--trace 0] [--first-seed 1]

Run it from the repository root. Run k of a workload uses seed
first-seed + k. Quartiles are statistics.quantiles(values, n=4); the
spread is (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. Each run's figures go to standard error as it ends. Exits
non-zero if any run fails, reports an incorrect answer, or fails a
different share of its operations than the others.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: " + " ".join(
        f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), file=sys.stderr)
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + k, args.seconds, args.trace)
                for k in range(args.runs)]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_shares = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(fail_shares) == 1
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed/attempted={sorted(shares)}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for d in defs:
            values = [r["metrics"][d["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = d.get("bound")
            print(f"  {d['name']:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
