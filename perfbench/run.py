#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hot|cold|mixed --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The perfbench binary is built from source
(Release) into .bench_build/regal-perfbench; its working files go to
.bench_build/perfbench-run. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "regal-perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-run")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def revision():
    # Only this checkout's own repository: git would otherwise walk up into
    # an enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over every file under src/: identifies the measured code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["hot", "cold", "mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the regal sources (src/) are not in this checkout")
        return 2
    if not build():
        log("build failed")
        return 2

    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, "--work-dir", WORK_DIR, "--seed", str(args.seed)]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload,
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--revision", revision(),
                    "--src-digest", src_digest()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded 175 s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
