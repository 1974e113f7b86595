#!/usr/bin/env python3
"""Build the load generator from source and run one benchmark workload.

    python3 perfbench/run.py --workload cot-bulk --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); traced runs write their per-layer table
and Chrome trace under its out/ directory. The last line of standard
output is the run's JSON result; the exit code is non-zero on any build,
run or correctness failure.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cot-bulk", "infer-lan", "infer-pipelined")
# The load generator's own limit is well inside this; the timeout only
# stops a hung child so the run still ends with a non-zero exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, stdout=None):
    """Run @cmd and return its exit code. The child is killed and reaped
    on timeout, and when this script is terminated."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 124
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr."""
    return run_child(cmd, timeout, stdout=sys.stderr)


def build(src_dir, build_dir):
    if not os.path.isfile(os.path.join(src_dir, "..", "CMakeLists.txt")):
        log("the repository sources are missing next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_checked(["cmake", "-S", src_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            log("configure failed")
            return False
    rc = run_checked(["cmake", "--build", build_dir, "-j", "4"],
                     BUILD_TIMEOUT_S)
    if rc != 0:
        log("build failed")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark helpers' own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    if not build(src_dir, build_dir):
        return 2

    if args.self_test:
        return run_child([os.path.join(build_dir, "perfbench_selftest")],
                         RUN_TIMEOUT_S)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    # The load generator prints its diagnostics and, last, the result
    # line on our stdout; a failed or killed run prints no result.
    return run_child(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
