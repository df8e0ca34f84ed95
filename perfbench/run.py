#!/usr/bin/env python3
"""Build the ctj libraries and the perfbench binary, then run one benchmark run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
Everything is built under .bench_build/ with the repository's own CMake
project, so the library gets exactly the flags a user's build gets. Build
output goes to stderr; the binary's stdout is passed through unchanged, so
the last stdout line is the result JSON. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def sh(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    ctj = BUILD / "ctj"
    if not (ctj / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(ROOT), "-B", str(ctj),
            "-DCMAKE_BUILD_TYPE=Release"])
    # ctj_serve depends on every library the benchmark links.
    sh(["cmake", "--build", str(ctj), "-j", jobs, "--target", "ctj_serve"])
    bench = BUILD / "perfbench"
    if not (bench / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(HERE), "-B", str(bench),
            "-DCMAKE_BUILD_TYPE=Release", f"-DCTJ_BUILD_DIR={ctj}"])
    sh(["cmake", "--build", str(bench), "-j", jobs, "--target",
        "perfbench_ctj"])
    return bench / "perfbench_ctj"


def source_rev():
    """The git revision, or a digest of the sources when not in a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "cmake"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "kernel"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ctj sources next to {HERE.name}/ (need CMakeLists.txt and "
            "src/ at the repository root)")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-rev", source_rev(),
           "--spool-dir", str(BUILD / f"perfbench-spool-{os.getpid()}")]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(BUILD / f"perfbench-trace-{args.workload}-{args.seed}.txt")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
