#!/usr/bin/env python3
"""End-to-end benchmark of the TDP reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the program's libraries, the
paradynd executable and the benchmark program from source into .bench_build/
(incremental after the first run), runs one workload, and prints the
program's per-figure lines followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set.
Exits non-zero, printing no result, when the build or the run fails; a
failed correctness check prints its result ("correct": false) and exits 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("lifecycle_posix", "jobs_sim", "control_tcp")
# A run may take this much longer than its --seconds (set-up, teardown,
# the round in progress when the time is up) before it is stopped.
RUN_SLACK_S = 100

_child = None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def terminate_child():
    """SIGTERM first, so the program kills the children it started."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGTERM)
        try:
            _child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(_child.pid, signal.SIGKILL)
            _child.wait()


def stop_child(*_):
    terminate_child()
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    tail = text.read()[-3000:]
                fail(f"build failed ({' '.join(step)}):\n{tail}")
    binary = os.path.join(BUILD_DIR, "tdp_perfbench")
    paradynd = os.path.join(BUILD_DIR, "tdp", "paradyn", "paradynd")
    for path in (binary, paradynd):
        if not os.path.exists(path):
            fail(f"build produced no {path}")
    return binary, paradynd


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    global _child
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop_child)

    binary, paradynd = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--paradynd", paradynd,
               "--work-dir", os.path.join(BUILD_ROOT, "perfbench-work")]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, f"{args.workload}.tsv")]

    # Its own session, so a timeout can stop everything it started.
    _child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        terminate_child()
        fail("the run did not finish in time")
    code = _child.returncode

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail(f"the benchmark program exited with {code} and printed no result")
    for line in lines[:-1]:
        print(line)
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        fail("malformed result line")
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(json.dumps(result), flush=True)
    if code != 0 or not result["correct"]:
        fail(f"a correctness check failed (exit {code})")


if __name__ == "__main__":
    main()
