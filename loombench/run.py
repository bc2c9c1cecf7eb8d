#!/usr/bin/env python3
"""Builds loombench from source and runs one workload.

    python3 loombench/run.py --workload mb-bfs --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/loombench
(default .bench_build/loombench); scratch files go to a per-run directory
under it and are removed afterwards. The last stdout line is the result
object; see loombench/README.md for the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "loombench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "loombench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"loombench: build failed: {e}", file=sys.stderr)
        return 2

    # A relative work dir keeps the server's unix socket path short.
    work = os.path.relpath(os.path.join(
        build_dir, "work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(build_dir, "work", "traces"), exist_ok=True)
    cmd = [os.path.join(build_dir, "loombench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("loombench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
