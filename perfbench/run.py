#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Everything the build and the run write goes under the build directory
($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
files, the binary, scratch data directories and span traces. The last line
the program prints is the result object; see perfbench/NOTES.md.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group.

    Returns the exit code, or None on timeout. Either way every process
    started has ended when it returns.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
             cwd=bench, env=env, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rc = run([binary, "-workload", args.workload, "-seed", str(args.seed),
              "-seconds", repr(args.seconds), "-trace", str(args.trace),
              "-work", os.path.join(build, "work")], RUN_TIMEOUT_S, env=env)
    if rc is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
