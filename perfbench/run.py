#!/usr/bin/env python3
"""Builds the perfbench package and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload spgemm_warm --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark binary; see perfbench/README.md.
The build goes to $CARGO_TARGET_DIR (default .bench_build); cargo's output
goes to standard error so the result line stays last on standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # Compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(target, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "taco-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
