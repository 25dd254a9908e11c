#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark (perfbench/src, a CMake project of its own) is compiled in
Release together with the library sources in src/, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Everything a
run writes stays under that directory: the build, the per-episode AOT
compile caches (via TMPDIR), and the traced run's span dump and layer table
(results/).  The last line of stdout is the result as one JSON object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_fingerprint(root):
    """Hash of the library and benchmark sources: the checkout may not be a
    git repository, so this identifies what was built."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(root):
    src = "src-" + source_fingerprint(root)
    if not (root / ".git").exists():
        return src
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return src
    return f"{rev.stdout.strip()}+{src}" if rev.returncode == 0 else src


def build(root, build_dir, target):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(build_dir), "--target", target, "-j", "4"])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}", 1)
            if r.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}", 1)
    return build_dir / target


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    root = Path.cwd()
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"{needed} not found: run from the root of a full checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"

    if args.selftest:
        binary = build(root, build_dir, "perfbench_selftest")
        r = subprocess.run([str(binary)], timeout=600)
        py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                             str(root / "perfbench" / "tests"), "-p", "test_*.py"], timeout=120)
        sys.exit(r.returncode or py.returncode)

    if args.workload is None:
        fail("--workload is required")
    binary = build(root, build_dir, "msc_e2e")
    scratch = build_dir / "tmp" / f"run{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch), "--out", str(build_dir / "results"),
           "--commit", commit_id(root)]
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = r.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
