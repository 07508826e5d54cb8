#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny run lengths.

    python3 perfbench/smoke.py

For each workload it makes two untraced runs and one traced run with
--smoke and checks that:
  - the last stdout line is the result object, with no failed operation;
  - the metrics printed are exactly BENCHMARK.json's end_to_end (untraced)
    or per_layer (traced) metrics, each with the unit listed there;
  - the simulated metrics, slice_speedup_pct and limit_speedup_pct,
    repeat exactly between the two untraced runs.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("slice_speedup_pct", "limit_speedup_pct")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} --trace {trace}: failed operations\n{out.stderr}")
    return result["metrics"]


def check_names(workload, metrics, wanted):
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"{workload}: missing {missing}, unexpected {extra}, wrong unit {units}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"{workload}: {name} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = run(name, 0)
        second = run(name, 0)
        traced = run(name, 1)
        check_names(name, first, bench["end_to_end"])
        check_names(name, traced, bench["per_layer"])
        for metric in SIMULATED:
            if first[metric]["value"] != second[metric]["value"]:
                sys.exit(f"{name}: {metric} changed between runs "
                         f"({first[metric]['value']} vs {second[metric]['value']})")
        print(f"ok {name}: {len(first)} end-to-end and {len(traced)} per-layer metrics")


if __name__ == "__main__":
    main()
