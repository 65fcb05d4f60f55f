#!/usr/bin/env python3
"""Builds and runs the repo benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload storm|net4096|fft2d --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It configures and builds
perfbench/CMakeLists.txt (the simulator sources plus the benchmark program) into
.bench_build/perfbench, runs the perfbench binary, checks that the result carries
exactly the metrics BENCHMARK.json declares for this mode, and prints the
result as the last line of stdout.  Build output goes to stderr.  The exit
status is non-zero when the build fails, the binary fails, or an output
check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group (a build's compiler children included) and waits for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                          stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if code != 0:
            fail("build step %s exited %d" % (cmd[:2], code))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["storm", "net4096", "fft2d"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    expected = expected_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", TRACE_DIR]
    try:
        code, out = run(cmd, 3 * args.seconds + 60, stdout=subprocess.PIPE,
                        text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("perfbench binary failed: %s" % e)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench binary printed no result (exit %d)" % code)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(expected) - set(got)),
                           sorted(set(got) - set(expected)),
                           sorted(k for k in got.keys() & expected.keys()
                                  if got[k] != expected[k])))
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
