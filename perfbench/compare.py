#!/usr/bin/env python3
"""Compare two result sets written by perfbench/steady.py --out.

    python3 perfbench/compare.py BASE.json CHANGE.json

For each workload and end-to-end metric: both medians with their
quartiles, the change of the median as a share of the base median, and
the verdict against the metric's bound in BENCHMARK.json:

  worse        the change's median is worse than the base's by more than
               the bound
  unresolved   not worse by more than the bound, but either side's spread
               (q3 - q1) / median is wider than the bound, and the
               change's runs do not all beat all of the base's runs
  ok           otherwise

Then the failed/attempted share per workload and any failure label the
change has and the base has not.  Exits 1 if any metric is worse, any
failure label is new, or any run of the change failed a check.  Run
from the root of a checkout.
"""
import json
import statistics
import sys

sys.dont_write_bytecode = True


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(record):
    out = {}
    for run in record["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def verdict(metric, base, change):
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    if worse_by > bound:
        return "worse", worse_by
    wide = any(med and (q3 - q1) / med > bound
               for q1, med, q3 in ((bq1, bmed, bq3), (cq1, cmed, cq3)))
    if wide:
        if metric["better"] == "lower":
            all_better = max(change) < min(base)
        else:
            all_better = min(change) > max(base)
        if not all_better:
            return "unresolved", worse_by
    return "ok", worse_by


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        base = by_workload(json.load(f))
    with open(sys.argv[2]) as f:
        change = by_workload(json.load(f))
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload}: missing from "
                  f"{'base' if workload not in base else 'change'}")
            continue
        b_runs, c_runs = base[workload], change[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            v, worse_by = verdict(m, bv, cv)
            bad |= v == "worse"
            bq1, bmed, bq3 = quartiles(bv)
            cq1, cmed, cq3 = quartiles(cv)
            delta = (cmed - bmed) / bmed if bmed else 0.0
            print(f"  {name:<24} base {bmed:<11.5g} [{bq1:.5g}, {bq3:.5g}]  "
                  f"change {cmed:<11.5g} [{cq1:.5g}, {cq3:.5g}]  "
                  f"delta {delta:+7.2%}  bound {m['bound']:.2f}  {v}")
        for label, runs in (("base", b_runs), ("change", c_runs)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            wrong = sum(not r["result"]["correct"] for r in runs)
            print(f"  {label}: failed {fail}/{att} ({fail / att:.2%}), "
                  f"runs with a failed check {wrong}")
            bad |= label == "change" and wrong > 0
        old = {l for r in b_runs for l in r["failures"]}
        new = sorted({l for r in c_runs for l in r["failures"]} - old)
        if new:
            bad = True
            print(f"  new failure labels: {', '.join(new)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
