#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload replay|dse|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from the checkout's own sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr. The measuring
program's stdout is passed through: a run-context line, then, as the last
line, the result JSON {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the first traced pass's spans are also written as CSV next
to the build.

Exits non-zero, printing no result, when the sources are missing, the build
fails, or the measuring program fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(command, timeout=None, stdout=None):
    """Run a child process and wait for it; on a timeout, a signal or any
    other exit path it is killed and reaped before this returns."""
    child = subprocess.Popen(command, stdout=stdout, text=True)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        fail(f"{Path(command[0]).name} did not finish within {timeout} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(build_dir):
    """Configure (once) and build the measuring program; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_child(configure, stdout=sys.stderr)[0] != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_child([cmake, "--build", str(build_dir), "--target", "ace_perf",
                  "-j", jobs], stdout=sys.stderr)[0] != 0:
        fail("build failed")
    return build_dir / "ace_perf"


def source_id():
    """The commit when the checkout is a git repository, otherwise a hash of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ from the result format")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} is malformed")


def main():
    # SIGTERM unwinds like Ctrl-C, so run_child's cleanup stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "dse", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    program = build(build_dir)

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_id()]
    if args.trace:
        command += ["--trace-file",
                    str(build_dir / f"trace-{args.workload}-{args.seed}.csv")]
    code, out = run_child(command, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        fail(f"ace_perf exited with {code}")
    lines = out.strip().splitlines()
    try:
        check_result(lines[-1])
    except (IndexError, ValueError) as err:
        fail(f"malformed result: {err}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
