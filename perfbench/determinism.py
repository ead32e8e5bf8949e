#!/usr/bin/env python3
"""Run each workload twice with the same seed and compare per-seed results.

    python3 perfbench/determinism.py [--seed N] [--workloads a,b]

Uses traced runs, whose "fixed:" line holds everything that must be a
pure function of the seed: delivered coverage per job, the falsified
ratio and robustness digest, and the program's deterministic telemetry
counters over the traced jobs.  Exits 1 on any difference.  Run from the
root of a checkout.
"""
import argparse
import json
import subprocess
import sys

sys.dont_write_bytecode = True


def fixed_record(workload, seed):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: exit {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("fixed: ")]
    return json.loads(lines[-1][len("fixed: "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="generate,table3,falsify,corpus")
    args = ap.parse_args()
    differ = False
    for w in args.workloads.split(","):
        a, b = fixed_record(w, args.seed), fixed_record(w, args.seed)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        print(f"{w}: {len(a)} per-seed results, "
              + ("identical" if not diff else f"DIFFER: {', '.join(diff)}"))
        differ |= bool(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
