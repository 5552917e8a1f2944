#!/usr/bin/env python3
"""Build and run the end-to-end benchmark driver.

Usage (from the root of a gralmatch checkout):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures e2ebench/CMakeLists.txt into .bench_build/ (or the directory
named by $CARGO_TARGET_DIR, relative to the checkout root) on first use,
brings the driver up to date, then runs it with the given arguments. Build
output goes to standard error, so the driver's JSON result stays the last
line of standard output. Exits non-zero without a result when the checkout
holds no gralmatch sources to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no gralmatch sources next to {HERE}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "--target", "gralmatch_e2e",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "gralmatch_e2e")


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    driver = build(build_dir)
    sys.stdout.flush()
    result = subprocess.run([driver] + argv + ["--scratch", build_dir],
                            cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
