#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs it once.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); a traced run writes its spans to .bench_out/. The
last line on stdout is the run's JSON result. The exit code is not 0 when the
build fails, the run fails, or a correctness check fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

_child = None


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def _run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        print(f"run.py: timed out after {timeout} s: {cmd[0]}", file=sys.stderr)
        return 1


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main(argv):
    signal.signal(signal.SIGTERM, _kill_child)
    signal.signal(signal.SIGINT, _kill_child)
    workload, seed = _flag(argv, "--workload"), _flag(argv, "--seed")
    if None in (workload, seed, _flag(argv, "--seconds"), _flag(argv, "--trace")):
        print(__doc__, file=sys.stderr)
        return 2

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "servebench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if _run(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr) != 0:
            return 1
    if _run(["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs],
            BUILD_TIMEOUT_S, sys.stderr) != 0:
        return 1

    cmd = [os.path.join(build_dir, "servebench")] + argv
    if _flag(argv, "--trace") == "1" and _flag(argv, "--spans-out") is None:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(".bench_out", f"spans-{workload}-{seed}.tsv")]
    sys.stdout.flush()
    return _run(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
