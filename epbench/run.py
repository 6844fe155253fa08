#!/usr/bin/env python3
"""epbench entry point: build epsim and the benchmark driver, then run one
workload.

    python3 epbench/run.py --workload tune_churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The repository is built with its own
CMake build into <build>/epsim (only the epserved target and the libraries
it needs), the driver package in epbench/ into <build>/epbench, where
<build> is $CARGO_TARGET_DIR or .bench_build.  Build output goes to stderr;
the last line of stdout is the driver's JSON result.

    python3 epbench/run.py --selftest

feeds every correctness check a corrupted input and fails unless each
check rejects it.  SIGINT/SIGTERM are forwarded to the running child, which
stops and reaps the daemon it started before exiting.
"""
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "epbench")
BUILD_TYPE = "Release"

_child = None
_signalled = 0


def _forward(signum, _frame):
    # Only pass the signal on: the wait() the main thread is blocked in
    # reaps the child (waiting here too would deadlock on Popen's lock).
    global _signalled
    _signalled = signum
    if _child is None:
        sys.exit(128 + signum)
    _child.send_signal(signum)


def _wait_child(cmd, **kwargs):
    """Run cmd to its end; exit with 128 + signal if one was forwarded."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    rc = _child.wait()
    _child = None
    if _signalled:
        sys.exit(128 + _signalled)
    return rc


def _run(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    rc = _wait_child(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        print(f"epbench: build step failed ({rc}): {' '.join(cmd)}",
              file=sys.stderr)
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("epbench: no epsim sources at " + ROOT, file=sys.stderr)
        sys.exit(2)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build")
    epsim, driver = os.path.join(out, "epsim"), os.path.join(out, "epbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(epsim, "CMakeCache.txt")):
        _run(["cmake", "-S", ROOT, "-B", epsim, *gen,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    _run(["cmake", "--build", epsim, "--target", "epserved", "-j", jobs])
    if not os.path.isfile(os.path.join(driver, "CMakeCache.txt")):
        _run(["cmake", "-S", BENCH_DIR, "-B", driver, *gen,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
              f"-DEPSIM_SOURCE_DIR={ROOT}", f"-DEPSIM_BUILD_DIR={epsim}"])
    _run(["cmake", "--build", driver, "-j", jobs])
    return os.path.join(driver, "epbench_driver")


def commit_id():
    """The git commit, or a digest of the build inputs outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    signal.signal(signal.SIGINT, _forward)
    signal.signal(signal.SIGTERM, _forward)
    exe = build()
    print(f"machine: nproc={os.cpu_count()} cpu=\"{cpu_model()}\" "
          f"commit={commit_id()} build={BUILD_TYPE}", flush=True)
    sys.exit(_wait_child([exe, *sys.argv[1:]], cwd=ROOT))


if __name__ == "__main__":
    main()
