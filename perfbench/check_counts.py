"""Exact-count test: the work counters of a traced run repeat exactly.

    python3 perfbench/check_counts.py [--seed N] [--write]

For each workload, runs ``run.py --trace 1`` twice in fresh processes on the
same seed and compares every metric whose unit is ``count``.  Exits 1 when
the two runs disagree or a run reports incorrect answers.  The counts that
differ from the baseline recorded for that seed in ``baseline_counts.json``
are printed for information (they are what a change cites); they do not
fail the test.  ``--write`` records the counts as the baseline of that seed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline_counts.json")
WORKLOADS = ("domset-sparse", "indep-precore", "formula-dense",
             "exact-indices")


def traced_counts(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the traced run reported incorrect "
                         f"answers")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    recorded = baseline.setdefault(str(args.seed), {})
    mismatches = 0
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            mismatches += 1
            print(f"{workload}: two runs differ in {differ}")
            continue
        print(f"{workload}: {len(first)} counts repeat exactly")
        if args.write:
            recorded[workload] = first
            continue
        want = recorded.get(workload, {})
        for name in sorted(first):
            if first[name] != want.get(name):
                print(f"  {name}: {first[name]} (baseline {want.get(name)})")
    if args.write and not mismatches:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
