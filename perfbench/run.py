#!/usr/bin/env python3
"""Build the call-path benchmark from source, then run it.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The arguments are passed to
perfbench/main.exe unchanged (see perfbench/README.md). Build output
goes to standard error, so the benchmark's JSON result stays the last
line of standard output. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # Keep every build artefact, compiler temporaries included, inside
    # the checkout.
    env["DUNE_CACHE"] = "disabled"
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
