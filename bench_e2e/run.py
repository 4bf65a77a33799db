#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run it.

    python3 bench_e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build at the checkout root; trace inputs, checkpoints and
Chrome traces go to .bench_work. Without --workload every workload runs in
turn, each in a process of its own, so peak RSS and allocator state belong to
one workload. The last line bench_e2e prints is its JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["verdict-mem", "verdict-text", "acd-stream", "cr-restart"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure once, then build incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "analysis", "session.hpp")):
        sys.exit("bench_e2e: no AutoCheck sources at %s" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_work")
    rc = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        sys.stdout.flush()
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        try:
            # A hung run is killed (and reaped) rather than left behind.
            rc = rc or subprocess.run(cmd, timeout=150 + args.seconds).returncode
        except subprocess.TimeoutExpired:
            print("bench_e2e: %s timed out" % workload, file=sys.stderr)
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
