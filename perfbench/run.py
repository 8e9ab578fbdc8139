#!/usr/bin/env python3
"""Builds the benchmark of record from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The simulator's libraries and the benchmark are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the build is
incremental, so only the first run in a checkout pays for it. Build output
goes to stderr, so the benchmark's JSON result stays the last line of
stdout. Exits non-zero, without a result, when the build fails.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])


def spans_path(out, argv):
    """Where a traced run writes its spans: beside the build, per run."""
    opts = dict(zip(argv[::2], argv[1::2]))
    name = "spans-{}-seed{}.jsonl".format(opts.get("--workload", "unknown"),
                                          opts.get("--seed", "0"))
    return os.path.join(out, name)


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    cmd = [binary] + argv
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        cmd += ["--spans", spans_path(out, argv)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    # On SIGTERM, unwind through the finally below so the benchmark process
    # is stopped and waited for, not left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
