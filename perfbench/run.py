#!/usr/bin/env python3
"""End-to-end benchmark of mrlquant (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the daemons, the load
generator and the benchmark's self-test as a Release package under
$CARGO_TARGET_DIR (default .bench_build), checks the self-test, then runs
one workload. The last line of stdout is the JSON result; the exit code is
non-zero when a build, a correctness check or the run itself fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("ingest_sampled", "ingest_exact", "small_mixed", "routed")
TARGETS = ("perfbench_driver", "perfbench_selftest", "mrlquantd",
           "mrlquant_router")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then brings the Release build up to date."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j4", "--target"] +
                 list(TARGETS))
    env = dict(os.environ, CCACHE_DISABLE="1")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/mrlquantd.cc",
                   "tools/mrlquant_router.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no mrlquant sources here (missing %s)" % needed)

    # Relative paths keep the daemons' Unix socket paths short.
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(target, "perfbench"))
    build(build_dir)

    if subprocess.call([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        fail("self-test of the benchmark's arithmetic failed")

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--bin-dir", os.path.join(build_dir, "repo_tools"),
               "--run-dir", run_dir]
    # Own session: the driver and every daemon it starts share one process
    # group, which is killed whatever happens to the driver.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE,
                              start_new_session=True)
    out = b""
    try:
        out, _ = driver.communicate(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
    finally:
        stop_group(driver)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0 if driver.returncode == 0 and out else 1


def stop_group(driver):
    """Kills whatever is left of the driver's process group and waits (up to
    10 s) until the group is empty."""
    try:
        os.killpg(driver.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    driver.wait()
    for _ in range(1000):
        try:
            os.killpg(driver.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
