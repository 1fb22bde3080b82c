#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are across seeds.

Runs the untraced pass of each workload once per seed, then reports, per
metric, the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, against the bound BENCHMARK.json
fixes. Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/steadiness.json
    python3 perfbench/steady.py --workloads tenantmix --seeds 1-5
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_log(line):
    """The unscaled run time and the kernel time from the untraced pass's log
    line ("... unscaled run 2.51 s, kernel 0.203 s ..."), for comparison."""
    out = {}
    for key, label in (("unscaled_run_s", "unscaled run "), ("kernel_s", "kernel ")):
        if label in line:
            out[key] = float(line.split(label, 1)[1].split()[0])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default="", help="write the summary as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("quartiles need at least two seeds")

    summary = {
        "machine": {"cpus": len(os.sched_getaffinity(0)), "platform": platform.platform()},
        "seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: output check failed")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            log = [line.split("untraced: ", 1)[1] for line in proc.stderr.splitlines() if "untraced: " in line]
            for k, v in parse_log(log[0] if log else "").items():
                values.setdefault(k, []).append(v)
            print(f"{name} seed {seed}: {wall:.1f}s " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())),
                  flush=True)
        rows = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(k), "values": vs}
            flag = ""
            if k in bounds and k != "setup_s":
                worst = max(worst, spread / bounds[k])
                if spread > bounds[k] / 3:
                    flag = "  <-- above a third of its bound"
            print(f"  {name:16s} {k:18s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}% (bound {bounds.get(k)}){flag}", flush=True)
        summary["workloads"][name] = rows
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
