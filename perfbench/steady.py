#!/usr/bin/env python3
"""Steadiness check: run each workload N times and summarise every metric.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--seconds S]
                                [--workloads a,b] [--trace] [--out FILE]

Runs `perfbench/run.py` N times per workload with seeds seed..seed+N-1 and
prints, per metric, the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), min, max and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json. With
--trace it runs the traced mode instead, summarises the per-layer metrics,
and also the end-to-end figures of the traced windows (read from the span
files), whose difference from an untraced set is the tracing overhead.
With --out, every run's result is appended to FILE as one JSON line.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

HERE = "perfbench"


def traced_end_to_end(workload, seed):
    with open(f".bench_run/trace-{workload}-{seed}.jsonl") as f:
        last = f.read().splitlines()[-1]
    return json.loads(last)["end_to_end"]


def summarise(title, values, bounds):
    print(f"  {title:<26} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound / 3:
            flag = "  > bound/3"
        print(f"  {name:<26} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(vals):12.5g} "
              f"{max(vals):12.5g} {spread:8.4f} {'' if bound is None else bound:>6}{flag}")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, f"{HERE}/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values, traced, shares, walls = {}, {}, set(), []
        for i in range(args.runs):
            seed = args.seed + i
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                        "result": result}) + "\n")
            ok &= result["correct"]
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace:
                for name, v in traced_end_to_end(workload, seed).items():
                    traced.setdefault(name, []).append(v)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, failed shares {sorted(map(str, shares))}")
        summarise("metric", values, bounds)
        if traced:
            print("  end-to-end figures of the traced windows:")
            summarise("metric", traced, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
