#!/usr/bin/env python3
"""Checks that the benchmark is steady. Run from the root of a checkout:

    python3 benchmark/steadiness.py --seeds 1-10 [--seconds 35] [--workloads campus_100k,ward_trials]

It runs `run.py --trace 0` once per seed on every workload, taking the
workloads in turn for each seed so that they see the same stretch of host
time, and prints, for every end-to-end metric, the median of the runs and
their spread: the distance between the first and third quartile as a share
of the median. A metric is steady when its spread stays within its bound in
BENCHMARK.json (aim for a third of it); `setup_s` only has to keep its
median.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"steadiness: {w} seed {seed} failed {result['failed']} ops")
            line = []
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                line.append(f"{name}={m['value']:.5g}")
            print(f"{w} seed {seed}: {' '.join(line)}", flush=True)

    steady = True
    for w in workloads:
        for name, xs in values[w].items():
            spread = stats.spread(xs) if len(xs) > 1 else 0.0
            bound = bounds[name]
            ok = name == "setup_s" or spread <= bound
            steady &= ok
            print(f"{w:<12} {name:<12} median {stats.median(xs):<12.5g} spread {spread:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f}){'' if ok else '  TOO NOISY'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
