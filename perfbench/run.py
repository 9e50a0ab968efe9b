#!/usr/bin/env python3
"""Builds the benchmark and the `arrayeq` CLI from source, then runs the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Every argument is passed to the `perfbench` binary (see perfbench/src/main.rs).
Build output goes to $CARGO_TARGET_DIR, or to .bench_build when it is unset.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, *cargo_args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    # Build chatter goes to stderr: the last stdout line belongs to the result.
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed with exit code {done.returncode}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout of the repository")
    build(target, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    build(target, "-p", "arrayeq-cli")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--arrayeq", os.path.join(release, "arrayeq"), *sys.argv[1:]]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
