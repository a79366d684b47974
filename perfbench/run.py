#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the catbatch libraries from ../src
and the perfbench binary into .bench_build/ (incrementally: only the first
run of a checkout compiles), then runs one workload. The binary's stdout
passes through; its last line is the result object. Build output goes to
stderr. Extra flags (--scale tiny, --inject oversubscribe) are forwarded.
See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no catbatch sources at src/ -- run from the root of a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out_dir = BUILD / "perfbench"
    if not (out_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir)] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(out_dir), "--target", "perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    os.chdir(ROOT)
    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--socket-dir", os.path.relpath(BUILD, ROOT),
               "--commit", source_id()] + extra
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
