#!/usr/bin/env python3
"""Build and run the DSE benchmark from the root of a checkout.

    python3 dsebench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds dsebench/main.exe from source with dune (build output goes to
stderr), then runs it from the checkout root with the given arguments.
Its standard output, whose last line is the JSON result, passes through
unchanged; a failed build or run exits non-zero.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # Keep every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet",
             "./dsebench/main.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"dsebench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("dsebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "dsebench", "main.exe")
    # Pin glibc's adaptive mmap and trim thresholds. Left adaptive, they
    # switch with the allocation history between reusing freed memory and
    # returning it to the kernel and faulting it in again, which made the
    # warm phase (large store loads) run in one of two speeds per run.
    run_env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="33554432",
                   MALLOC_TRIM_THRESHOLD_="1073741824")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root, env=run_env,
                              timeout=RUN_TIMEOUT_S).returncode or 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"dsebench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
