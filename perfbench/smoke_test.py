#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Runs every workload at a tiny size, traced
and untraced, and checks the result object against BENCHMARK.json. Then
proves the output checks can fail: with a scheduler wrapper that starts a
task the free processors cannot hold, the in-process workloads must report
failed operations. Last, the benchmark must refuse to run (non-zero exit,
no result) in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first problem.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
IN_PROCESS = ["dag-soa", "sweep-graph", "trace-swf"]


def check(ok, what):
    if not ok:
        print(f"smoke: FAIL {what}")
        sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
               "--scale", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(done, what):
    check(done.returncode == 0, f"{what}: exit {done.returncode}\n"
          f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    check(lines, f"{what}: no output")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted {result['attempted']}")
    check(isinstance(result["failed"], int), f"{what}: failed not an int")
    return result


def check_spec():
    check(set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    check(len(names) == len(set(names)), "metric or workload name reused")
    check(all(NAME.match(n) for n in names), "malformed name")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        check(UNIT.match(m["unit"]), f"malformed unit {m['unit']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for m in SPEC["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    check(any(m["name"] == "setup_s" for m in SPEC["end_to_end"]), "setup_s")
    check(2 <= len(SPEC["workloads"]) <= 8, "workload count")


def main():
    check_spec()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            what = f"{workload} --trace {trace}"
            result = result_of(run(workload, trace), what)
            check(result["correct"] and result["failed"] == 0,
                  f"{what}: {result['failed']} failed operations")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in listed},
                  f"{what}: metric names differ from BENCHMARK.json")
            for m in listed:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"], f"{what}: unit of {m['name']}")
                check(isinstance(got["value"], (int, float)),
                      f"{what}: value of {m['name']}")
                if trace == 0:
                    check(got["value"] > 0, f"{what}: {m['name']} is 0")
            print(f"smoke: ok {what}")

    for workload in IN_PROCESS:
        what = f"{workload} --inject oversubscribe"
        result = result_of(run(workload, 0, "--inject", "oversubscribe"), what)
        check(not result["correct"] and result["failed"] > 0,
              f"{what}: over-subscription passed the checks")
        print(f"smoke: ok {what} ({result['failed']} of "
              f"{result['attempted']} operations failed)")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "dag-soa", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "bare directory: the benchmark ran without the sources")
    print("smoke: ok bare directory refused")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
