#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs it.

Run from the root of the repository:

    python3 servebench/run.py --workload fabric_serve --seed 1 --seconds 10 --trace 0

Workloads: fabric_serve, admit_churn, software_mixed. `--trace 1` reports the
per-layer metrics instead of the end-to-end ones. `--self-test` and
`--probe-table` are passed through to the benchmark binary. Build output goes
to standard error; the last line of standard output is the result JSON.
Results, spans and ledgers are written under servebench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "servebench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
