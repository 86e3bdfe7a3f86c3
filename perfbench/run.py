#!/usr/bin/env python3
"""Build and run the sbg benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the sbg library from src/ plus sbg_perfbench) as a Release
build under .bench_build/perfbench, runs sbg_perfbench from the repository
root, checks that its result line names exactly the metrics BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1) and
passes it through as the last stdout line. Build output goes to stderr.
Extra options (--scale, --corrupt-reference) are forwarded to sbg_perfbench;
selftest.py uses them.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sbg_perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_tmp", "build")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "sbg_perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, env=env, check=True)


def commit():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = ap.parse_known_args()
    expected = expected_metrics(args.trace)
    try:
        build()
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()] + extra
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    # Hold back the last line: it is printed only once it checks out.
    last = ""
    for line in child.stdout:
        if not line.strip():
            continue
        if last:
            print(last, flush=True)
        last = line.rstrip("\n")
    if child.wait() != 0:
        if last:
            print(last)
        return child.returncode

    result = json.loads(last)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra_names = sorted(set(got) - set(expected))
        wrong_unit = sorted(k for k in set(got) & set(expected)
                            if got[k] != expected[k])
        print(f"run.py: metrics differ from BENCHMARK.json: missing={missing} "
              f"unexpected={extra_names} unit={wrong_unit}", file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
