#!/usr/bin/env python3
"""The repository benchmark's single command.

Builds `perfbench` in Release from the repository's sources into
.bench_build/perfbench at the checkout root, then runs it.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of workload W. The last line of standard output is the JSON
      result {correct, attempted, failed, metrics}.

  python3 perfbench/run.py --workload all --seed N --seconds S
      Every workload, untraced then traced: prints every end-to-end and
      per-layer metric by name and unit.

  python3 perfbench/run.py --workload W --repeat R --seed N --seconds S
      R runs of W with seeds N..N+R-1: prints each metric's median, first
      and third quartile and their spread as a share of the median, and the
      share of failed operations.

Build output goes to standard error. Exits non-zero if the build or a run
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
# The gated workloads (BENCHMARK.json) first, then the TCP ones, which are
# run by hand: on a shared host their figures follow other tenants' load.
WORKLOADS = ("sim_abd_mixed", "sim_treas_large", "sim_reconfig_churn",
             "tcp_abd_mixed", "tcp_treas_large")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "store.hpp")):
        sys.exit("perfbench: the repository sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns (stdout lines, parsed result)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", TRACE_DIR],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} exited "
                 f"{proc.returncode}")
    return lines, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binary, args):
    runs = []
    for i in range(args.repeat):
        _, res = run_once(binary, args.workload, args.seed + i, args.seconds,
                          args.trace)
        runs.append(res)
        print(json.dumps({"seed": args.seed + i, **res}), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.seed}.."
          f"{args.seed + len(runs) - 1}, {args.seconds} s each")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in every run: {all(r['correct'] for r in runs)}; "
          f"failed share per run: {sorted(shares)}")
    print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    summary = {}
    for name in sorted(runs[0]["metrics"]):
        unit = runs[0]["metrics"][name]["unit"]
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": unit}
        print(f"{name:34} {unit:6} {med:14.4f} {q1:14.4f} {q3:14.4f} "
              f"{spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "summary": summary}))


def run_all(binary, args):
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, res = run_once(binary, workload, args.seed, args.seconds, trace)
            results[f"{workload}/trace{trace}"] = res
            print(f"\n{workload} ({'traced, per-layer' if trace else 'end-to-end'}): "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for name, m in sorted(res["metrics"].items()):
                print(f"  {name:34} {m['value']:16.4f} {m['unit']}")
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    binary = build()
    if args.workload == "all":
        run_all(binary, args)
    elif args.repeat > 0:
        repeat(binary, args)
    else:
        lines, _ = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        print("\n".join(lines))


if __name__ == "__main__":
    main()
