#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload mf_steady|lda_churn|spot_mlr \
        --seed N --seconds S --trace 0|1 [e2e_bench flags...]

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles the runtime from ../src) into .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 only when every clock's virtual report was correct.
Unknown flags (--tiny, --reference, --write-reference, --out-dir) are
passed through to e2e_bench.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "e2e_bench"
REFERENCE = PERFBENCH / "reference.txt"
OUT_DIR = ROOT / ".bench_build" / "out"
# A run must finish within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench. Returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"runtime sources not found under {ROOT / 'src'}")
        return False
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PERFBENCH), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("cmake configure failed")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "e2e_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        log("build failed")
        return False
    return BINARY.is_file()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not build():
        return 2
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(OUT_DIR)]
    if "--reference" not in extra and "--write-reference" not in extra:
        cmd += ["--reference", str(REFERENCE)]
    cmd += extra
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
