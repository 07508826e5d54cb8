#!/usr/bin/env python3
"""Check a fresh BENCH_<name>.json against the committed one.

    python3 tools/bench_columns.py COMMITTED FRESH

Simulated columns are deterministic, so every record's simulated
columns must equal the committed file's; records are matched by name.
Host columns (wall times, rates) and the aggregate are report-only:
shared machines are too noisy for a threshold. Exits 1 on any
difference, naming each one.
"""

import json
import sys

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
    committed_doc, fresh_doc = (json.load(open(p))
                                for p in (committed_path, fresh_path))
    records, key, cols = SIMULATED[committed_doc["bench"]]
    committed, fresh = ({r[key]: columns(r, cols) for r in doc[records]}
                        for doc in (committed_doc, fresh_doc))
    bad = [f"{name}.{c}: committed {want.get(c)}, "
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
