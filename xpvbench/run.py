#!/usr/bin/env python3
"""Builds the xpv serving benchmark from source and runs one workload.

    python3 xpvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library and the xpvbench program are
built with CMake into $CARGO_TARGET_DIR/xpvbench (default
.bench_build/xpvbench); build output goes to stderr, so the program's JSON
result stays the last line of stdout. Exits nonzero if the build fails,
the program fails, or any answer is wrong.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = root / "xpvbench"
    if not build(build_dir):
        print("xpvbench: build failed", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([str(build_dir / "xpvbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("xpvbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
