#!/usr/bin/env python3
"""Builds and runs one workload of the BIGCity performance benchmark.

    python3 perfbench/run.py --workload serve_walk --seed 1 --seconds 30 --trace 0

Run it from the root of a BIGCity source tree. The first run builds the
program from source (CMake, Release) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later runs only rebuild what
changed. Build output goes to standard error.

Standard output carries the run's provenance, the digest of its generated
inputs and a metric table; its last line is one JSON object with exactly
the keys "correct", "attempted", "failed" and "metrics". With --trace 0 the
metrics are the end-to-end metrics BENCHMARK.json lists, with --trace 1 the
per-layer ones. A failed correctness check, a failed build or a result that
does not match BENCHMARK.json exits non-zero without printing a result.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_walk", "serve_mixed", "train")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE / "cc"):
        files += [p for p in tree.rglob("*") if p.is_file()]
    files.append(HERE / "CMakeLists.txt")
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a BIGCity source tree (no CMakeLists.txt and "
             "src/); run the benchmark from a checkout of the repository", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def check_result(result, trace):
    """Problems with a result line, checked against BENCHMARK.json."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted {attempted!r}")
    if not isinstance(failed, int) or not 0 <= failed <= (attempted or 0):
        problems.append(f"failed {failed!r}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    declared = declared_metrics(trace)
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in declared.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if entry.get("unit") != unit:
            problems.append(f"{name} unit {entry.get('unit')!r}, declared {unit!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny models and budgets (the benchmark's tests)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one served output before the parity "
                             "check (the benchmark's tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}", 2)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out-dir", str(out / "runs"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail(f"{args.workload} failed with exit status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {lines[-1]!r}")
    problems = check_result(result, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
