#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
With ``--out`` it also writes the figures as a baseline file.

Run from the repository root, after building the benchmark:

    cargo build --release --manifest-path e2ebench/Cargo.toml
    python3 e2ebench/spread.py --seeds 10 --out e2ebench/baseline.json

The binary is looked up under ``$CARGO_TARGET_DIR`` (default ``target``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers")
    return result, wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    # A metric that reads 0 (one with nothing to measure on this
    # workload) has no relative spread.
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", "target")
    binary = os.path.join(target, "release", "e2ebench")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {}
    for workload in args.workloads.split(","):
        samples = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(binary, workload, seed, args.seconds, args.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.seeds} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        figures = {}
        for name, values in samples.items():
            s = summarise(values)
            figures[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and (s["spread"] is None or s["spread"] > bound / 3):
                flag = "  <-- above a third of its bound"
            spread = "    n/a" if s["spread"] is None else f"{s['spread']:>7.3f}"
            print(f"  {name:<40} median {s['median']:>12.4f}  q1 {s['q1']:>12.4f}  "
                  f"q3 {s['q3']:>12.4f}  spread {spread}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
            print("      runs: " + " ".join(f"{v:.4g}" for v in values), flush=True)
        report[workload] = figures
    if args.out:
        # One file holds both kinds of run: each invocation replaces
        # only its own section.
        try:
            with open(args.out) as f:
                baseline = json.load(f)
        except FileNotFoundError:
            baseline = {}
        section = baseline.setdefault("end_to_end" if args.trace == 0 else "per_layer", {})
        section["seconds"] = args.seconds
        for workload, figures in report.items():
            section.setdefault("workloads", {})[workload] = figures
            section.setdefault("seeds", {})[workload] = list(
                range(args.first_seed, args.first_seed + args.seeds))
        with open(args.out, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True, allow_nan=False)
            f.write("\n")


if __name__ == "__main__":
    main()
