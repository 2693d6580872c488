#!/usr/bin/env python3
"""Build the ccmxbench runner from this source tree and run a workload.

    python3 ccmxbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds ccmxbench/ (Release, into .bench_build/ccmxbench) on
first use; later runs only re-check the build.  Build output goes to stderr,
so the last line of stdout is the JSON result.  The runner is started with
every CCMX_* tracing, profiling, sampling and thread-count variable removed
from its environment.  With --trace 1 the recorded spans are written to
.bench_build/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ccmxbench")
WORKLOADS = ["exact-singularity", "fingerprint-protocol",
             "rational-solvability", "lemma-census"]
RUNNER_TIMEOUT_S = 170
DROPPED_ENV_PREFIXES = ("CCMX_TRACE", "CCMX_PROF_", "CCMX_SAMPLE_",
                        "CCMX_PROGRESS")
DROPPED_ENV_NAMES = ("CCMX_HW", "CCMX_THREADS", "CCMX_REPORT",
                     "CCMX_BENCH_OUT")


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith(DROPPED_ENV_PREFIXES)
            and k not in DROPPED_ENV_NAMES}


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default target is the runner alone (tests and unused library
    # targets are excluded from it); building it also re-runs CMake when a
    # build file changed.
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ccmxbench: no ccmx sources next to the benchmark "
              f"(looked for {os.path.join(ROOT, 'src')})", file=sys.stderr)
        return 2
    env = clean_env()
    if not build(env):
        print("ccmxbench: build failed", file=sys.stderr)
        return 2

    command = [os.path.join(BUILD_DIR, "ccmxbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    runner = subprocess.Popen(command, env=env)
    try:
        return runner.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        runner.kill()
        runner.wait()
        print("ccmxbench: runner timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
