#!/usr/bin/env python3
"""Smoke self-check of the benchmark, at smoke scale (104 runs a campaign).

    python3 perfbench/selftest.py

Runs paper_full, delta_vreg and serve_full untraced and traced through
run.py and checks that each result passes the correctness gate and carries
exactly the metrics BENCHMARK.json names, each with its unit. Then corrupts
one Table-1 count in a copy of the expectation file and checks that the gate
trips: non-zero exit, "correct": false, every run counted as failed.
Exits 0 when every check holds.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"


def run(workload, trace, expect=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--scale", "smoke", "--seconds", "1", "--seed", "7",
               "--trace", str(trace)]
    if expect is not None:
        command += ["--expect", str(expect)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    return result.returncode, json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)
        print(("ok    " if condition else "FAIL  ") + message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            check(code == 0 and result is not None, f"{label}: exit 0")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{label}: correct, 0 failed of {result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: {len(want)} {section} metrics "
                               "named and united as in BENCHMARK.json")
            check(all(isinstance(m["value"], (int, float))
                      for m in result["metrics"].values()),
                  f"{label}: every value is a number")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupt = SCRATCH / "corrupt.txt"
    lines = (HERE / "expected" / "smoke.txt").read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields and fields[0] == "pair":
            fields[-1] = str(int(fields[-1]) + 1)
            lines[i] = " ".join(fields)
            break
    corrupt.write_text("\n".join(lines) + "\n")
    code, result = run("paper_full", 0, expect=corrupt)
    check(code != 0, "corrupted expectation: non-zero exit")
    check(result is not None and not result["correct"]
          and result["failed"] == result["attempted"],
          "corrupted expectation: correct false, every run failed")

    print(f"{len(failures)} check(s) failed" if failures else "all checks ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
