#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload end to end on a
tiny (2,000-row) UIS dataset, untraced and traced, and asserts that each
run passes its output checks and prints every metric BENCHMARK.json names,
with its unit.

    python3 perfbench/smoke_test.py

Takes about a minute once the programs are built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace),
         "--tuples", "2000"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s --trace %d exited %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result, text = run(workload, trace)
            except AssertionError as error:
                failures.append(str(error))
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append("%s --trace %d: checks failed: %r" % (
                    workload, trace, {k: result[k] for k in ("correct", "attempted", "failed")}))
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                failures.append("%s --trace %d: metrics %r, expected %r" % (
                    workload, trace, printed, expected))
            for name, unit in expected.items():
                if not any(line.startswith(name + " = ") and line.endswith(" " + unit)
                           for line in text):
                    failures.append("%s --trace %d: no '%s = ... %s' line" % (
                        workload, trace, name, unit))
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    failures.append("%s: end-to-end metrics read 0: %s" % (workload, zero))
            print("ok %s --trace %d (%d metrics)" % (workload, trace, len(printed)))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
