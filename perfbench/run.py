#!/usr/bin/env python3
"""Builds and runs the perfbench binary on one workload.

Usage (from the root of an hdhash checkout):

    python3 perfbench/run.py --workload <tcp-steady|emu-churn|emu-faults> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the hdhash
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally.  The binary's
standard output is passed through; its last line is the JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(directory: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no hdhash sources next to {HERE.name}/")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (directory / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(directory),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(directory), "--target",
                    "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)
    binary = directory / "perfbench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-1 over the library and benchmark sources, so a result names
    the code it measured even outside a git repository."""
    digest = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tcp-steady", "emu-churn", "emu-faults"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    trace_dir = directory / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--trace-dir", str(trace_dir),
               "--git-commit", git_commit(),
               "--source-digest", source_digest()] + extra
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
