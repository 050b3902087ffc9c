#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload and
end-to-end metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files that `perfbench/run.py`
wrote (its `perfbench/results/`), from runs with `--trace 0`.  Runs are
paired by seed, in run order within a seed.  The verdict follows one rule
for every change:

- better: the change wins at least nine tenths of at least ten pairs (ties
  count for neither side), its median beats the parent's by more than the
  parent's quartile spread, and no more operations fail than at the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: neither, and the quartile spread of either side is wider than
  the bound, unless every change run beats every parent run;
- within bound: otherwise.

Exits 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{workload: [record, ...]} of untraced full-size runs, in run order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and not record.get("tiny") and "result" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def pairs(parent, change):
    """(parent, change) record pairs, matched by seed."""
    by_seed = {}
    for rec in change:
        by_seed.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in parent:
        if by_seed.get(rec["seed"]):
            out.append((rec, by_seed[rec["seed"]].pop(0)))
    return out


def fail_ratio(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted if attempted else 0.0


def verdict(a, b, matched, bound, lower_is_better, more_failures):
    """One row's verdict from parent values `a`, change values `b` and the
    matched (parent, change) value pairs."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = stats.quartiles(a)
    q1b, q3b = stats.quartiles(b)
    wins = sum(1 for x, y in matched if sign * (y - x) < 0)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if (len(matched) >= MIN_PAIRS and wins >= WIN_SHARE * len(matched)
            and sign * (med_a - med_b) > q3a - q1a and not more_failures):
        return "better", wins
    if worse_by > bound:
        return "worse", wins
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def compare(parent_dir, change_dir, out=sys.stdout):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        pa, ch = parent.get(workload, []), change.get(workload, [])
        if not pa or not ch:
            out.write(f"{workload}: results on one side only, not compared\n")
            continue
        matched = pairs(pa, ch)
        more_failures = fail_ratio(ch) > fail_ratio(pa)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in pa]
            b = [r["result"]["metrics"][name]["value"] for r in ch]
            vals = [(x["result"]["metrics"][name]["value"], y["result"]["metrics"][name]["value"])
                    for x, y in matched]
            v, wins = verdict(a, b, vals, metric["bound"], metric["better"] == "lower",
                              more_failures)
            rows.append((workload, name, a, b, len(vals), wins, v))
    out.write(f"{'workload':11s} {'metric':12s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'change':>8s} {'wins':>7s}  verdict\n")
    for workload, name, a, b, n_pairs, wins, v in rows:
        def cell(vals):
            q1, q3 = stats.quartiles(vals)
            return f"{statistics.median(vals):.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}"
        med_a = statistics.median(a)
        delta = (statistics.median(b) - med_a) / abs(med_a) * 100 if med_a else 0.0
        out.write(f"{workload:11s} {name:12s} {cell(a):34s} {cell(b):34s} {delta:+7.2f}% "
                  f"{wins:>3d}/{n_pairs:<3d}  {v}\n")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
