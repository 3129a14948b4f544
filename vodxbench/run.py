#!/usr/bin/env python3
"""Builds and runs the vodx benchmark.

    python3 vodxbench/run.py --workload grid|pop|chaos --seed N \
        --seconds S --trace 0|1
    python3 vodxbench/run.py --selftest

Run from anywhere inside a checkout of the repository: the libraries are
compiled from ../src into .bench_build/ at the repository root (the first
run builds, later runs only check the build). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the separate traced
run, whose table and Chrome trace land in .bench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "vodxbench")

SETUP_SAMPLES = 11    # set-up is timed in this many fresh processes
RUN_TIMEOUT_S = 170   # one harness run, build excluded
SETUP_LINE = "# setup done"  # the harness prints this once set-up is done


def fail(message):
    print("vodxbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vodx sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_harness(args, extra=()):
    """Runs the harness; returns (exit code, stdout lines, seconds from
    process start until its set-up line, or None)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT] + list(extra)
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    lines, ready = [], None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith(SETUP_LINE):
                ready = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    return code, lines, ready


def time_setup(args):
    """Seconds from process start until set-up is done and the first pass
    could begin, one sample per fresh process."""
    code, _, ready = run_harness(args, ["--setup-only"])
    if code != 0 or ready is None:
        fail("set-up failed with exit code %d" % code)
    return ready


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["grid", "pop", "chaos"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build("vodxbench_tests")
        sys.exit(subprocess.run([os.path.join(BUILD, "vodxbench_tests")])
                 .returncode)
    if args.workload is None:
        fail("--workload is required")

    build("vodxbench")
    os.makedirs(OUT, exist_ok=True)
    setup_samples = []
    if args.trace == 0:
        setup_samples = [time_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    code, lines, ready = run_harness(args)
    if code != 0 or not lines:
        fail("run failed with exit code %d" % code)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.trace == 0:
        if ready is None:
            fail("the harness never reported the end of set-up")
        setup_samples.append(ready)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
        print("# setup_s: median of %s s (process start to end of set-up)"
              % ", ".join("%.3f" % x for x in setup_samples))
    if args.trace == 1:
        # The trace must load as JSON.
        with open(os.path.join(OUT, args.workload + ".trace.json")) as f:
            json.load(f)
    expected = declared_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        missing = set(expected) ^ set(result["metrics"])
        print("vodxbench: metrics differ from BENCHMARK.json: %s"
              % sorted(missing), file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
