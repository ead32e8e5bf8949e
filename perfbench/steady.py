#!/usr/bin/env python3
"""Run the benchmark several times per workload and record the spread.

    python3 perfbench/steady.py --runs 10 --out perfbench/records/NAME.json
    python3 perfbench/steady.py --workloads generate --runs 5 --first-seed 3
    python3 perfbench/steady.py --workloads corpus --runs 50 --seconds 0 --fuzz-pools

Each run uses another seed (first-seed, first-seed + 1, ...).  For every
end-to-end metric the script prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json; "steady" means the
spread is under a third of the bound.  It also prints every failed check
and failed operation, and exits 1 if any check failed.  --out keeps
every run's result for perfbench/compare.py.

Check sweeps: --seconds 0 runs only each workload's fixed job list, so
the checks see exactly what a timed run checks; --fuzz-pools also makes
the corpus pool the first cases of fuzz seed = workload seed, so each
seed checks other models.  Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True


def run_once(workload, seed, seconds, trace, fuzz_pools):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if fuzz_pools:
        cmd += ["--fuzz-seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    failures = [l.split(":", 1)[1].strip() for l in lines
                if l.startswith("failed operation:")]
    checks = [l.split(":", 1)[1].strip() for l in lines
              if l.startswith("check failed:")]
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "result": json.loads(lines[-1]),
            "failures": failures, "check_failures": checks}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(runs, spec):
    metrics = spec["end_to_end"] if runs and runs[0]["trace"] == 0 \
        else spec["per_layer"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rs = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        correct = all(r["result"]["correct"] for r in rs)
        print(f"{workload}: {len(rs)} runs, seeds "
              f"{','.join(str(r['seed']) for r in rs)}; correct={correct}; "
              f"failed {failed}/{attempted}; run wall "
              f"{min(r['wall_s'] for r in rs):.1f}-"
              f"{max(r['wall_s'] for r in rs):.1f} s")
        for r in rs:
            for c in r["check_failures"]:
                print(f"  seed {r['seed']}: check failed: {c}")
        labels = sorted({l for r in rs for l in r["failures"]})
        if labels:
            kinds = {}
            for label in labels:
                kind = label.split(":", 1)[0]
                kinds[kind] = kinds.get(kind, 0) + 1
            print(f"  failed operations {json.dumps(kinds, sort_keys=True)}: "
                  f"{', '.join(labels)}")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            if len(vals) < 2:
                continue
            med, q1, q3, spread = summarize(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {m['name']:<32} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f}"
                  + (f"  bound {bound}  {verdict}" if bound is not None else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--fuzz-pools", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for w in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(w, seed, seconds, args.trace,
                                 args.fuzz_pools))
            print(f"  ran {w} seed {seed} in {runs[-1]['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    record = {"nproc": os.cpu_count(), "run_seconds": seconds,
              "fuzz_pools": args.fuzz_pools, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print(f"nproc {record['nproc']}, run_seconds {seconds}")
    report(runs, spec)
    return 1 if any(not r["result"]["correct"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
