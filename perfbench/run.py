#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload echo-64 --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (the tree's own libraries, from
source), then runs it with the same arguments. Its last line of output
is the JSON result. Traced runs also write their raw spans under
.perfbench_out/. Exits non-zero without a result when the tree holds no
buildable program.
"""

import os
import re
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def arg_value(args, name):
    i = args.index(name) if name in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the source tree (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(build.stderr)
        fail("build failed")
    args = list(argv)
    workload, seed = arg_value(args, "--workload"), arg_value(args, "--seed")
    named = workload and seed and re.fullmatch(r"[A-Za-z0-9_.-]+", workload) and seed.isdigit()
    if arg_value(args, "--trace") == "1" and named:
        os.makedirs(".perfbench_out", exist_ok=True)
        args += ["--spans", os.path.join(".perfbench_out", f"spans-{workload}-seed{seed}.tsv")]
    try:
        run = subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
