#!/usr/bin/env python3
"""Run one workload of the nubb benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the nubb library, the nubb_serve daemon and the perfbench binary
(Release) into $CARGO_TARGET_DIR, or .bench_build when unset; later calls
rebuild incrementally. The binary's human-readable lines are relayed, and
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero without a result line when the sources
are missing, the build fails or the run does not complete. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6_mc", "bins16m_d3", "serve_loopback")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nubb sources next to perfbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench", "nubb_serve"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the run's lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench"), os.path.join(out_dir, "nubb", "tools", "nubb_serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary, serve_bin = build(out_dir)
    work_dir = os.path.join(out_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--serve-bin", serve_bin]
    # Own process group, so a timeout also stops a daemon the run spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        sys.stdout.write("\n")
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if sorted(result["metrics"]) != declared_metrics(args.trace):
        fail("result metrics differ from BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
