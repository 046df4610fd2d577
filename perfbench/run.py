#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload pr-web --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary from source into .bench_build/ (a no-op
after the first run), runs the named workload, passes its report through
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` list of BENCHMARK.json,
with --trace 1 the `per_layer` list. Names and units are checked against
that file, so the binary and the manifest cannot drift apart silently.
Per-layer metrics of layers the workload never runs (the binary's
`not_run` list) are reported as 0; every other one must be measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TMP_DIR = os.path.join(".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(src_dir):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", src_dir, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload '{args.workload}' (known: {', '.join(names)})")
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    binary = build(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", TMP_DIR]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with code {proc.returncode}")

    raw = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        # A layer the workload's path never runs reads 0: "not run here".
        not_run = any(m["name"] == p or (p.endswith(".") and
                                         m["name"].startswith(p))
                      for p in raw["not_run"])
        if args.trace and not_run:
            if got is not None:
                fail(f"metric '{m['name']}' was measured on a layer "
                     f"'{args.workload}' is said not to run")
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"metric '{m['name']}' was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric '{m['name']}' has unit '{got['unit']}', "
                 f"BENCHMARK.json says '{m['unit']}'")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
