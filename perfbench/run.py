#!/usr/bin/env python3
"""Build the simulator's benchmark program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig8_ntrx --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild incrementally. Build output goes to stderr. The perfbench binary
prints '#'-prefixed notes and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("fig8_ntrx", "fig8_webserver", "tenant_flood")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tree_digest(root, dirs):
    """sha256 over the relative paths and bytes of every file under dirs."""
    digest = hashlib.sha256()
    for top in dirs:
        for current, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(current, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, bench_dir):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=False)
            if configure.returncode != 0:
                fail("cmake configure failed")
        compiled = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                                  stdout=sys.stderr, stderr=sys.stderr, check=False)
        if compiled.returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {os.path.join(root, 'src')}")

    exe = build(root, bench_dir)
    print(f"# source: git={git_commit(root)} "
          f"tree_sha256={tree_digest(root, ('src', os.path.basename(bench_dir)))}",
          flush=True)
    try:
        run = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", args.trace],
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
