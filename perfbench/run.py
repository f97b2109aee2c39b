#!/usr/bin/env python3
"""Build the SPARCS benchmark and the sparcsd daemon from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo output goes to stderr; the benchmark prints its result as the last
line of stdout. Builds land in $CARGO_TARGET_DIR (default: .bench_build).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output must not reach stdout, whose last line is the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: building {manifest} failed")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, "Cargo.toml", "-p", "sparcsd")
    build(target, os.path.join("perfbench", "Cargo.toml"))
    bench = os.path.join(target, "release", "sparcs_perfbench")
    daemon = os.path.join(target, "release", "sparcsd")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(bench, [bench, *sys.argv[1:], "--sparcsd", daemon])


if __name__ == "__main__":
    main()
