#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The repository's src/ is compiled unchecked and in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
perfbench_load runs one workload. Its last line of output is the result:
one JSON object with correct, attempted, failed and metrics. --selftest runs the
self-tests of the benchmark's own correctness checks instead.
"""
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCES = BENCH_DIR.parent / "src" / "globe"
# Time allowed beyond --seconds: the round in progress when the run length
# is reached still finishes, and a round with its set-up and checks takes
# up to about 20 s.
RUN_MARGIN_S = 155
SELFTEST_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (SOURCES / "replication" / "testbed.cpp").is_file():
        fail(f"the program's sources are missing: expected {SOURCES} "
             "(run from the root of a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log)
    return build_dir


def main():
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    if not selftest:
        keys = args[0::2]
        if len(args) % 2 or sorted(keys) != ["--seconds", "--seed", "--trace", "--workload"]:
            fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>  (or run.py --selftest)")
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds > 0):
            fail("--seconds takes a positive number")
    build_dir = build()
    exe = build_dir / ("perfbench_selftest" if selftest else "perfbench_load")
    cmd = [str(exe)] if selftest else [str(exe)] + args
    timeout = SELFTEST_TIMEOUT_S if selftest else seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{exe.name} did not finish within {timeout:g} s")
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
