#!/usr/bin/env python3
"""Build and run the host-clock benchmark.

    python3 perfbench/run.py --workload tiers|replay|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds this directory's
CMake package (the repository's libraries from ../src, the interpd shard
binary and the perfbench driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the driver. Build
output goes to stderr; the driver's last stdout line is the result JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 8))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    for need in ("src/CMakeLists.txt", "programs/interpd.cc"):
        if not os.path.exists(os.path.join(REPO, need)):
            fail(REPO + " lacks " + need + "; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    # Relative, so that unix socket paths under it stay short.
    rel_out = os.path.relpath(out_dir)
    if len(rel_out) < len(out_dir):
        out_dir = rel_out
    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--interpd", os.path.join(build_dir, "interpd"),
           "--out", out_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
