#!/usr/bin/env python3
"""Builds propane from source and runs one benchmark workload.

    python3 perfbench/run.py --workload paper_full|delta_vreg|serve_full|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--scale full|smoke] [--expect FILE]

Run from the root of a propane source tree. The build goes to
.bench_build/ (Release, the repository's own CMake flags), run outputs to
.bench_build/out/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is non-zero when
the build fails or a repetition fails the correctness gate. `--workload
all` runs the three workloads in turn and prefixes each metric with its
workload's name. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "out"
BINARY = BUILD / "propane_perfbench"
WORKLOADS = ("paper_full", "delta_vreg", "serve_full")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; build output goes
    to stderr so stdout stays the benchmark's."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", str(BUILD), "--target",
               "propane_perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run_one(workload, args, provenance):
    expect = args.expect or str(HERE / "expected" / f"{args.scale}.txt")
    command = [str(BINARY), "run", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--expect", expect, "--out", str(OUT / workload),
               "--commit", provenance[0], "--source", provenance[1]]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    summary = None
    if lines:
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            summary = None
    return result.returncode, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--expect", default="",
                        help="Table-1 expectation file "
                             "(default: perfbench/expected/<scale>.txt)")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    provenance = (git_commit(), source_digest())
    if args.workload != "all":
        code, summary = run_one(args.workload, args, provenance)
        return code if summary is not None else (code or 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, summary = run_one(workload, args, provenance)
        if summary is None:
            log(f"{workload} printed no result")
            return code or 1
        status = status or code
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
