#!/usr/bin/env python3
"""Build and run the lumen host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark crate beside this script (release, offline) into
$CARGO_TARGET_DIR, default `.bench_build` at the repository root, then
runs it from the repository root with the given arguments. The last
line of standard output is the result object. Build output goes to
standard error; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Evaluation runs on one worker and starts from an empty cache. The
    # benchmark pins this itself as well; clearing it here keeps any
    # caller's settings away from the build scripts too.
    for var in ("LUMEN_CACHE_DIR", "LUMEN_EVAL_CACHE"):
        env.pop(var, None)
    env["LUMEN_SWEEP_THREADS"] = "1"

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(MANIFEST)]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "lumen-perfbench"
    try:
        ran = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
