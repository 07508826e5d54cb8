#!/usr/bin/env python3
"""Check a fresh BENCH_<name>.json against the committed one.

    python3 tools/bench_columns.py COMMITTED FRESH

Simulated columns are deterministic, so every record's simulated
columns must equal the committed file's; records are matched by name,
so both files must be of the same bench kind and name each record
once. Host columns (wall times, rates) and the aggregate are
report-only: shared machines are too noisy for a threshold. Exits 1 on
any difference, naming each one.
"""

import json
import sys
from collections import Counter

PERF = ("cycles", "main_retired", "ipc", "cond_branches", "mispredictions",
        "loads", "l1d_misses_main", "covered_misses", "forks",
        "correlator_used", "outcome")

# The document's "bench" field -> (record list, record name, columns).
SIMULATED = {
    "simspeed": ("workloads", "name", PERF),
    "paper": ("workloads", "name", PERF),
    "fastforward": ("workloads", "name", (
        "ff_executed", "full_ipc", "sampled_ipc", "ipc_rel_err",
        "within_epsilon", "full_outcome", "sampled_outcome",
        "fast_forwarded", "sampled_regions")),
    # Every field of each predictor section is a counter or a ratio.
    "replay": ("traces", "workload", ("records", "predictors")),
}


def columns(record, cols):
    """The record's simulated columns, one predictor section's fields
    as "predictor.field" each."""
    out = {}
    for c in cols:
        value = record.get(c)
        if isinstance(value, list):
            for section in value:
                for k, v in section.items():
                    out[f"{section['predictor']}.{k}"] = v
        else:
            out[c] = value
    return out


def main(committed_path, fresh_path):
    paths = (committed_path, fresh_path)
    docs = [json.load(open(p)) for p in paths]
    kinds = [doc["bench"] for doc in docs]
    if kinds[0] != kinds[1]:
        print(f"{fresh_path} is a {kinds[1]} file, "
              f"{committed_path} a {kinds[0]} file")
        return 1
    records, key, cols = SIMULATED[kinds[0]]
    # A second record of one name would hide the first.
    bad = [f"{path}: {n} records named {name}"
           for path, doc in zip(paths, docs)
           for name, n in Counter(r[key] for r in doc[records]).items()
           if n > 1]
    committed, fresh = ({r[key]: columns(r, cols) for r in doc[records]}
                        for doc in docs)
    bad += [f"{name}.{c}: committed {want.get(c)}, "
            f"now {fresh.get(name, {}).get(c)}"
            for name, want in committed.items()
            for c in sorted(set(want) | set(fresh.get(name, {})))
            if want.get(c) != fresh.get(name, {}).get(c)]
    bad += [f"{name}: not in the committed file"
            for name in fresh if name not in committed]
    print("\n".join(bad) or f"{len(committed)} records match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
