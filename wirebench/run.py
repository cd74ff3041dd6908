#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the root of a checkout:

    python3 wirebench/run.py --workload point_mix --seed 1 --seconds 15 --trace 0

The first run configures and builds wirebench/ (the library from src/
plus the benchmark) in Release under $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. Build output goes to
standard error. Standard output carries the benchmark's table, its full
record (host and run metadata, every metric with its unit, sample counts)
and, as the last line, the result: correct/attempted/failed and the
metrics BENCHMARK.json names -- its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1.

Exits non-zero, printing no result, when the build, the run or a check
fails, or when the record lacks a metric BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, target_dir):
    build_dir = os.path.join(target_dir, "wirebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=root, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "wirebench",
                    "-j", jobs], cwd=root, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "wirebench")


def git_sha(root):
    # Stop git at the checkout, so it never reads a repository above it.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root):
    """sha256 over the library and benchmark sources: names the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def select(record, wanted, section):
    """The BENCHMARK.json metrics of `section` from the record."""
    metrics = {}
    for spec in wanted:
        got = record[section].get(spec["name"])
        if got is None:
            raise KeyError("record has no %s metric %r" % (section, spec["name"]))
        if got["unit"] != spec["unit"]:
            raise ValueError("metric %r has unit %r, BENCHMARK.json says %r"
                             % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        contract = json.load(f)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(root, target_dir)

    work_dir = os.path.join(target_dir, "wirebench-work-%d" % os.getpid())
    started = time.monotonic()
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(work_dir, ignore_errors=True)
    if run.returncode != 0:
        log("wirebench exited with code %d" % run.returncode)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    record = json.loads(lines[-1])
    record["meta"]["git_sha"] = git_sha(root)
    record["meta"]["source_digest"] = source_digest(root)
    record["meta"]["run_wall_s"] = "%.3f" % (time.monotonic() - started)

    if args.trace:
        metrics = select(record, contract["per_layer"], "per_layer")
    else:
        metrics = select(record, contract["end_to_end"], "end_to_end")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("wirebench/run.py: %s" % e)
        sys.exit(1)
