#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds the
benchmark (the repo's serving libraries plus the perfbench binary) from
source into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later calls only rebuild what changed.  Build output goes
to stderr, so the last line on stdout is the binary's JSON result.  Spans of
a traced run are written under .bench_out/.

Exits non-zero without a result when the sources are missing or the build
fails, and with the binary's own code otherwise (1 when a correctness gate
tripped).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; stop a wedged one before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build(targets) -> Path:
    if not (ROOT / "src" / "serve" / "service.h").is_file():
        raise RuntimeError(f"repo sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
              BUILD_TIMEOUT_S)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    try:
        out = build([target])
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    if args.selftest:
        cmd = [str(out / target)]
    else:
        cmd = [str(out / target), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(ROOT / ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
