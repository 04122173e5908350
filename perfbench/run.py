#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload graph_fig5 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built against the library crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default perfbench/target).
The last line of standard output is the run's JSON result; with
`--workload all` every workload runs in its own process and the last line
maps each workload to its result. The exit code is non-zero when the
build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

# churn_large runs by name and in `all`, but BENCHMARK.json does not gate
# on it (see perfbench/README.md).
WORKLOADS = ["graph_fig5", "txn_sharded", "churn_large"]
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; a hung one is stopped before that.
RUN_TIMEOUT_S = 170


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench: {workload} printed no result (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: {workload} printed a malformed result")
    return result, proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not 0 < args.seconds <= 600:
        sys.exit("perfbench: --seconds must be in (0, 600]")
    binary = build()
    if args.workload != "all":
        result, code = run_one(binary, args.workload, args)
        print(json.dumps(result))
        sys.exit(code)
    results, worst = {}, 0
    for w in WORKLOADS:
        results[w], code = run_one(binary, w, args)
        worst = max(worst, code)
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':<28} {'unit':<7}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        vals = "".join(f"{results[w]['metrics'][n]['value']:>16.4f}" for w in WORKLOADS)
        print(f"{n:<28} {unit:<7}{vals}")
    frac = "".join(f"{r['failed'] / r['attempted']:>16.4f}" for r in results.values())
    print(f"{'failed_frac':<28} {'ratio':<7}{frac}")
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
