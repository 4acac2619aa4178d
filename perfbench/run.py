#!/usr/bin/env python3
"""End-to-end benchmark of the LDDP framework.

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload solo-table --seed 1 --seconds 20 --trace 0

Workloads: solo-table, solo-frontier, batch-mixed. The last line of
standard output is the result object (correct, attempted, failed,
metrics); --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ledger. Detailed results and the traced run's spans are written
to .bench_build/perfbench/results/. The exit code is nonzero when the
build fails, a request fails or any answer is wrong.
"""
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lddp_perfbench")
# A run measures for --seconds plus set-up; anything near the 180 s limit
# is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def no_aslr():
    """Runs in the child before exec: turns off address-space randomization,
    so buffer alignment (and cache-set aliasing) is the same in every run."""
    try:
        ctypes.CDLL(None).personality(0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        pass


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    args = list(argv)
    if "--out" not in args:
        args += ["--out", os.path.join(BUILD, "results")]
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True,
                              preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and "--workload" in args and not (
            "--list" in args or "--describe" in args):
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            sys.exit("perfbench: malformed result line")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
