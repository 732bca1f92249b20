#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median -- the figure each end-to-end metric's bound is checked
against. Run from the repository root:

    python3 perfbench/spread.py --workload guard-steady --seeds 1-5
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", help="append each run's result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        start = time.time()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        line = out.strip().splitlines()[-1]
        res = json.loads(line)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": res}) + "\n")
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        print(f"seed {seed}: {time.time() - start:.1f}s "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':34} {'median':>12} {'iqr/med':>8} {'bound':>6}")
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(k)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{k:34} {med:12.6g} {spread:8.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
