#!/usr/bin/env python3
"""Builds the `chop` binary and the benchmark harness, then runs workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--counters]

Run from the root of a checkout. Without --workload it runs all three
workloads in turn. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Build output and errors go to
stderr. Builds land in $CARGO_TARGET_DIR (default .bench_build), and so do
the runs' state, spans and result files.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["explore_cold", "whatif_warm", "serve_routed"]
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds both binaries; returns (harness, chop) paths or exits."""
    for needed in (ROOT / "Cargo.toml", ROOT / "crates" / "cli" / "Cargo.toml"):
        if not needed.is_file():
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "chop-cli", "--bin", "chop"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "chop-perfbench", release / "chop"


def run_harness(harness, chop, workload, args, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    state = target_dir() / "perfbench" / workload
    cmd = [str(harness), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--chop", str(chop), "--state-dir", str(state), *extra]
    # A session of its own, so a timeout can stop the harness together
    # with the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--counters", action="store_true",
                   help="print only the deterministic work counters")
    args = p.parse_args()

    harness, chop = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    extra = ["--counters"] if args.counters else []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, lines = run_harness(harness, chop, workload, args, extra)
        if code != 0:
            sys.exit(f"perfbench: {workload} failed (exit {code})")
        if args.counters:
            print(json.dumps({workload: json.loads(lines[-1])}))
            continue
        result = parse_result(lines)
        if result is None:
            sys.exit(f"perfbench: {workload} printed no result line")
        if len(workloads) == 1:
            print("\n".join(lines))
            return
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if not args.counters:
        print(json.dumps(combined))


if __name__ == "__main__":
    main()
