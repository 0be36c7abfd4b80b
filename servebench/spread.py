#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the root of a synts checkout:

    python3 servebench/spread.py --runs 10 [--workload rpc-cs] [--first-seed 1] [--trace 0]

For every workload and metric this prints the median of the runs, the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, and, for end-to-end metrics, that spread
against the metric's bound in BENCHMARK.json. Exits 1 if a run fails or
a spread (other than setup_s) exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            r = run_once(w, args.first_seed + i, bench["run_seconds"], args.trace)
            if not r["correct"] or r["failed"]:
                ok = False
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({args.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = f"  bound {bound:.3f}"
                if name != "setup_s" and spread > bound:
                    flag += "  EXCEEDED"
                    ok = False
            print(f"  {name:40s} median {med:14.6g}  spread {spread:7.4f}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
