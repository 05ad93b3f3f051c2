#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library sources under src/) with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs
the benchmark's self-tests, then runs the driver. The driver's last
output line, one JSON object, is checked against BENCHMARK.json (every
metric of the mode present, with its unit, and nothing else) and
printed as this script's last line. A build, self-test or driver
failure exits non-zero; a result whose checks failed is printed first.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take --seconds plus one pass of its workload and the
# capacity search that closes a KV run.
SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(build_dir)  # configured for another checkout
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(res))
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in want if k in got
                                  and got[k] != want[k])))
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)

    code, out = run([os.path.join(build_dir, "perfbench_selftest")], 120)
    sys.stdout.write(out)
    if code:
        fail("self-tests failed")

    code, out = run([os.path.join(build_dir, "perfbench"),
                     "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", a.trace],
                    a.seconds + SLACK_S)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        res = check_result(lines[-1], a.trace == "1")
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("driver exited with %d and no result line" % code)
    print(lines[-1], flush=True)
    if code or not res["correct"]:
        fail("driver reported incorrect results (exit %d)" % code)


if __name__ == "__main__":
    main()
