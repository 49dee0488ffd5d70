#!/usr/bin/env python3
"""Build the AVIV benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `aviv-perfbench` and the `avivd` binary in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
last line of standard output is the JSON result; build output and the
human-readable summary go to standard error. Work files (the avivd socket,
plan-cache snapshots, trace spans) go to `.bench_run/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "aviv-perfbench", "-p", "aviv-cli", "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    proc = subprocess.run(
        [os.path.join(release, "aviv-perfbench")]
        + sys.argv[1:]
        + ["--avivd", os.path.join(release, "avivd"), "--workdir", ".bench_run"]
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
