#!/usr/bin/env python3
"""The repository's benchmark. Run from the root of a checkout:

    python3 benchmark/run.py --workload campus_100k --seed 1 --seconds 35 --trace 0

It builds the `workloads` runner (benchmark/Cargo.toml) into
$CARGO_TARGET_DIR (default `.bench_build`), runs it on one workload, and
prints a table of the metrics and then, as its last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

* `--trace 0` reports the end-to-end metrics: wall_s, setup_s, cpu_s,
  throughput and peak_rss_mb.
* `--trace 1` runs the traced pass instead and reports every per-layer
  metric (see README.md for what each should move).

Every run also writes `.bench_out/<workload>-seed<n>-trace<t>.json`: the
raw samples or spans, the metrics, and a host record (nproc, CPU model,
load average, and the user and steal ticks of /proc/stat over the run) so
that a noisy run can be told apart. `--workload all` runs every workload
in turn and prints one table for all of them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("campus_100k", "ward_trials", "paper_suite")
OUT_DIR = ".bench_out"
# A run must end within 180 s; the runner gets this long before it is
# stopped and the run reported as failed.
RUNNER_TIMEOUT_S = 170
# The kernel keeps a lone thread on one vCPU for a whole run, and on a
# shared host the vCPUs run at different speeds: two pinned copies of
# paper_suite ran at the same time at 3.9 s/op on one vCPU and 3.0-4.0 s/op
# on the other. So the runner of a single-threaded workload is moved to the
# next allowed CPU every HOP_SECONDS, and every op samples all of them, as
# the two-threaded workloads do by themselves.
SINGLE_THREADED = {"paper_suite"}
HOP_SECONDS = 0.5


def build():
    """Builds the runner and returns its path. Exits on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(os.path.relpath(HERE), "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("benchmark: building the workload runner failed")
    return os.path.join(target, "release", "workloads")


def proc_stat_cpu():
    """The aggregate `cpu` line of /proc/stat as named tick counters."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {n: int(v) for n, v in zip(names, fields)}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def host_record(before, after, load_before):
    delta = {k: after[k] - before[k] for k in before}
    total = sum(delta.values()) or 1
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "user_ticks": delta["user"],
        "steal_ticks": delta["steal"],
        "total_ticks": total,
        "steal_share": delta["steal"] / total,
    }


def run_runner(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    hop = workload in SINGLE_THREADED and trace == 0
    cpus = sorted(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    waited = 0.0
    while True:
        timeout = HOP_SECONDS if hop else RUNNER_TIMEOUT_S - waited
        try:
            out, _ = proc.communicate(timeout=timeout)
            break
        except subprocess.TimeoutExpired:
            waited += timeout
            if waited >= RUNNER_TIMEOUT_S:
                proc.kill()
                proc.wait()
                sys.exit(f"benchmark: {workload} runner exceeded {RUNNER_TIMEOUT_S} s")
            hops = round(waited / HOP_SECONDS)
            try:
                os.sched_setaffinity(proc.pid, {cpus[hops % len(cpus)]})
            except OSError:
                pass  # the runner just exited; communicate() collects it
    if proc.returncode != 0:
        sys.exit(f"benchmark: {workload} runner exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timing(samples, unit):
    """A timing metric: the median, with its sample count, quartiles and the
    highest percentile with ten samples beyond it."""
    q1, q2, q3 = stats.quartiles(samples)
    return {"value": q2, "unit": unit, "n": len(samples), "q1": q1, "q3": q3,
            "high": stats.high_percentile(samples)}


def end_to_end(raw):
    wall = timing(raw["op_s"], "s")
    throughput = stats.ratio(raw["work_per_op"], wall["value"])
    return {
        "wall_s": wall,
        "setup_s": timing(raw["setup_s"], "s"),
        "cpu_s": {"value": raw["cpu_s_per_op"], "unit": "s", "n": len(raw["op_s"])},
        "throughput": {"value": throughput["value"], "unit": "1/s", "n": len(raw["op_s"]),
                       "counts": raw["work_unit"], "work_per_op": raw["work_per_op"]},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB", "n": 1},
    }


def print_table(workload, metrics):
    print(f"== {workload}")
    for name, m in metrics.items():
        extra = ""
        if "q1" in m:
            extra = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
            if m.get("high"):
                extra += f"  p{m['high'][0]:g} {m['high'][1]:.6g}"
        if "counts" in m:
            extra += f"  ({m['counts']} per second)"
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {n:<6}{extra}")


def run_one(binary, workload, seed, seconds, trace):
    before, load_before = proc_stat_cpu(), loadavg()
    raw = run_runner(binary, workload, seed, seconds, trace)
    host = host_record(before, proc_stat_cpu(), load_before)
    metrics = raw.pop("metrics") if trace else end_to_end(raw)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "host": host, "metrics": metrics, "raw": raw}, f, indent=1)
    print_table(workload, metrics)
    for item in raw.get("unmeasurable", []):
        print(f"  unmeasurable {item['metric']}: {item['reason']}")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    print(f"  host: {json.dumps(host)}")
    print(f"  written to {path}")
    return raw["attempted"], raw["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    reported = {}
    for w in workloads:
        a, f, metrics = run_one(binary, w, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        for name, m in metrics.items():
            key = name if len(workloads) == 1 else f"{w}.{name}"
            reported[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))


if __name__ == "__main__":
    main()
