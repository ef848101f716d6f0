#!/usr/bin/env python3
"""FedPower benchmark entry point.

    python3 perfbench/run.py --workload paper|fleet|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
program's libraries from ../src) into $CARGO_TARGET_DIR or .bench_build
under the repository root, then runs one workload. The last line of
stdout is the run's JSON result. With --trace 1 the traced half's spans
are written to <build dir>/spans-<workload>.csv. --selftest builds and
runs the driver-equivalence test instead. See perfbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(target):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("program sources not found (%s is missing)" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "--target", target,
                      "-j", jobs])
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=log,
                                       timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "fleet", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        sys.exit(subprocess.call([binary], timeout=RUN_TIMEOUT_S))
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(build_dir(),
                                            "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
