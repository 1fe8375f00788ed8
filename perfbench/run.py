#!/usr/bin/env python3
"""Build and run the wbsim benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload paper_grid --seed 1 \
        --seconds 25 --trace 0

builds perfbench/ (and the simulator libraries from ../src) into the
directory named by CARGO_TARGET_DIR (default .bench_build), runs one
workload, and prints its result as the last line of stdout.

Repeat mode runs every named workload on --repeat consecutive seeds,
one process per run, and prints each metric's median and quartiles:

    python3 perfbench/run.py --workload all --repeat 10 --seed 1

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "multicore_bus", "serve_mix")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build wbbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources under", os.path.join(ROOT, "src"))
        sys.exit(2)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wbbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed:", error)
            sys.exit(2)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            sys.exit(2)
    return os.path.join(build_dir, "wbbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True,
                              check=False)
    except subprocess.TimeoutExpired:
        log(workload, "seed", seed, "timed out")
        return 1, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def spread_table(results):
    """results: {workload: [result, ...]} -> {workload: {metric: stats}}"""
    table = {}
    for workload, runs in results.items():
        names = list(runs[0]["metrics"]) if runs else []
        table[workload] = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            table[workload][name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
        table[workload]["failed"] = sum(r["failed"] for r in runs)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all" and args.repeat == 1:
        code, out = run_once(binary, args.workload, args.seed,
                             args.seconds, args.trace)
        if code != 0 or last_json(out) is None:
            log("benchmark run failed with exit code", code)
            sys.exit(code or 1)
        sys.stdout.write(out)
        return

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(args.repeat):
            seed = args.seed + i
            code, out = run_once(binary, workload, seed, args.seconds,
                                 args.trace)
            result = last_json(out)
            if code != 0 or result is None:
                log(workload, "seed", seed, "failed with exit code",
                    code)
                sys.exit(code or 1)
            log(workload, "seed", seed, json.dumps(result["metrics"]))
            results[workload].append(result)
    table = spread_table(results)
    for workload, metrics in table.items():
        print(f"{workload} ({args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}, "
              f"failed {metrics['failed']})")
        for name, s in metrics.items():
            if name == "failed":
                continue
            print(f"  {name:28s} median {s['median']:14.6g} "
                  f"q1 {s['q1']:14.6g} q3 {s['q3']:14.6g} "
                  f"spread {s['spread'] * 100:6.2f}% {s['unit']}")
    print(json.dumps(table))


if __name__ == "__main__":
    main()
