#!/usr/bin/env python3
"""Builds cdbp and bench_suite from this checkout, then runs one workload.

    python3 bench/suite/run.py --workload sim-ha --seed 1 --seconds 12 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome/Perfetto trace next to the results file). The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Build logs go to stderr. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the repository root; later runs rebuild
incrementally. Results and traces land in its results/ directory.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
WORKLOADS = ("sim-ha", "sweep-stream", "serve-net", "serve-restart")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    log(" ".join(cmd))
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                   check=True)


def build(build_dir):
    """Builds cdbp and bench_suite in the repository's own CMake tree, with
    its default build type (incrementally after the first run), and returns
    their paths."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", REPO_ROOT, "-B", build_dir, *gen,
              "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(SUITE_DIR, "in_tree.cmake"),
              "-DCDBP_BUILD_TESTS=OFF", "-DCDBP_BUILD_BENCH=OFF",
              "-DCDBP_BUILD_EXAMPLES=OFF"], 300)
    step(["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 8)),
          "--target", "cdbp", "bench_suite"], 800)
    return (os.path.join(build_dir, "bench-suite", "bench_suite"),
            os.path.join(build_dir, "tools", "cdbp"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO_ROOT, "src"))):
        log(f"no cdbp sources under {REPO_ROOT}; nothing to benchmark")
        return 2
    build_dir = os.path.join(REPO_ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        bench, cdbp = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(build_dir, f"work-{os.getpid()}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--cdbp", cdbp, "--work-dir", work,
           "--out", os.path.join(results, name + ".json")]
    if args.trace:
        cmd += ["--trace", os.path.join(results, name + ".trace.json")]
    # Own process group, so a timeout also takes down the servers it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        log(f"bench_suite timed out after {RUN_TIMEOUT_S} s")
        return 4
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"bench_suite exited with {proc.returncode}")
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("bench_suite printed no result line")
        return 5
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
