#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune, runs it with the same arguments and
passes its output through: the last line is the JSON result. With
--trace 1 the traced pass's spans are also written, as Chrome trace-event
JSON, to .perfbench/<workload>-seed<seed>-spans.json.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("jacobi", "false-sharing", "kv-serve")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a source checkout (no %s here)" % need)

    # Keep every build output inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed", 1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(".perfbench", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".perfbench", "%s-seed%d-spans.json" % (args.workload, args.seed))]
    # Its own process group, so a timeout also stops the pass processes.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
