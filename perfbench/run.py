#!/usr/bin/env python3
"""Build and run the serving-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wire_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn
    python3 perfbench/run.py --test      # build and run the benchmark's own tests

The first call configures and builds perfbench/ (which compiles the
repository's src/) into .bench_build/; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Results and spans are written to .bench_out/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["wire_mixed", "script_composite", "push_fanout", "wire_retry"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    for needed in ("src/CMakeLists.txt", "descriptors"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"missing {needed}: run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return os.path.join(BUILD, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help=" | ".join(WORKLOADS + ["all"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        tests = build("perfbench_tests")
        return subprocess.run([tests], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--descriptors", os.path.join(ROOT, "descriptors"),
                   "--out-dir", OUT, "--git-sha", sha]
        sys.stdout.flush()
        status = status or subprocess.run(command, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
