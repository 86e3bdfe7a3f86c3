#!/usr/bin/env python3
"""Self-test of the sbg benchmark at a tiny dataset scale.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run emits
every end-to-end metric and a traced run every per-layer metric, each with
the unit BENCHMARK.json gives, with all answers correct; that a run whose
reference hashes are deliberately flipped reports failed operations; and
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/ (there are no sources to build).
Exits 1 on the first failed expectation.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "2", "--scale", "0.002"]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    out = subprocess.run(cmd + TINY + list(extra), cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    return out.returncode, lines[-1] if lines else "", out.stderr


def expect(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)
    print(f"selftest: ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, err = run(w, trace)
            expect(rc == 0, f"{w} trace={trace} exits 0" +
                   ("" if rc == 0 else f": {err[-300:]}"))
            res = json.loads(last)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace} result keys")
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1, f"{w} trace={trace} all answers "
                   f"correct ({res['attempted']} attempted)")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} trace={trace} emits all {len(want)} "
                   f"{key} metrics with their units")
        rc, last, _ = run(w, 0, "--corrupt-reference")
        res = json.loads(last)
        expect(rc == 0 and not res["correct"] and res["failed"] >= 1,
               f"{w} flipped reference hashes count as failures "
               f"({res['failed']} of {res['attempted']})")

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, last, _ = run(spec["workloads"][0]["name"], 0, cwd=bare)
        expect(rc != 0 and not last.startswith("{"),
               "without the sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
