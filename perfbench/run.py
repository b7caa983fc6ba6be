"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: domset-sparse, indep-precore, formula-dense, exact-indices (see
README.md).  Each run starts fresh worker processes, one at a time: with
``--trace 0`` all but the last only build the instances, so that set-up is
timed several times (five to fifteen, more where set-up is cheap), and the
last also measures; with ``--trace 1`` a single worker alternates untraced
and traced passes.  Prints every metric by
name with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are reported at a reference host speed: each measured
time is multiplied by ``CAL_REF_S`` over the mean time of the worker's
calibration task, timed in the same process around the measured work (for
a pass: before each operation and after the last).  The raw wall times are
printed beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = (5, 15)  # fewest and most set-up timings per run
SETUP_BUDGET_S = 3.0  # past the fewest, time spent on set-up-only spawns
TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
# the reference host speed: a round figure near the time worker.calibrate()
# takes on a 2-vCPU VM with Python 3.11.7 while that VM is fast
CAL_REF_S = 0.006

END_TO_END_UNITS = {
    "pass_s_p50": "s", "pass_s_tail": "s", "decisions_per_s": "1/s",
    "setup_s": "s", "setup_rss_mb": "MiB", "peak_rss_mb": "MiB",
}


class WorkerError(RuntimeError):
    pass


def _spawn(args, deadline, setup_only):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    setup_s = result["ready_at"] - spawned_at
    return setup_s, setup_s * CAL_REF_S / result["setup_cal_s"], result


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, once that
    lies above the median; with fewer samples, the slowest one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        rank = n - 1 - TAIL_BEYOND
        return ordered[rank], f"p{100 * rank / (n - 1):.0f} of {n} passes"
    return ordered[-1], (f"slowest of {n} passes; no percentile above the "
                         f"median has {TAIL_BEYOND} passes beyond it")


def _end_to_end(setups, raw_setups, result):
    raw = result["pass_s"]
    pass_s = [elapsed * CAL_REF_S / cal
              for elapsed, cal in zip(raw, result["pass_cal_s"])]
    tail_s, tail_note = tail(pass_s)
    completed = result["attempted"] - result["failed"]
    metrics = {
        "pass_s_p50": statistics.median(pass_s),
        "pass_s_tail": tail_s,
        "decisions_per_s": completed / sum(pass_s),
        "setup_s": statistics.median(setups),
        "setup_rss_mb": result["setup_rss_kib"] / 1024,
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
    }
    notes = {
        "pass_s_p50": (f"median of {len(pass_s)} passes; "
                       f"{statistics.median(raw):.4f} s wall"),
        "pass_s_tail": f"{tail_note}; {tail(raw)[0]:.4f} s wall",
        "decisions_per_s": (f"{completed} operations completed in "
                            f"{sum(raw):.3f} s of wall operation time"),
        "setup_s": (f"median of {len(setups)} processes; "
                    f"{statistics.median(raw_setups):.4f} s wall"),
        "setup_rss_mb": "ru_maxrss after set-up",
        "peak_rss_mb": "ru_maxrss at the end of the run",
    }
    cal_ms = statistics.median(result["pass_cal_s"]) * 1000
    print(f"host speed: calibration {cal_ms:.3f} ms (median of the pass "
          f"means), reference {CAL_REF_S * 1000} ms")
    for name, value in metrics.items():
        print(f"{name:16} {value:.6g} {END_TO_END_UNITS[name]}  "
              f"({notes[name]})")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def _per_layer(result):
    for name, metric in result["per_layer"].items():
        note = "" if metric["value"] else "  (not reached on this workload)"
        print(f"{name:32} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"traced passes: {len(result['traced_pass_s'])}, untraced passes: "
          f"{len(result['pass_s'])}; {result['span_count']} spans written "
          f"to {os.path.relpath(result['spans_file'])}")
    for name, value in result["shares"].items():
        print(f"share {name} = {value:.3f}")
    return result["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIMEOUT_S
    raw_setups, setups = [], []
    try:
        fewest, most = SETUP_SAMPLES
        while not args.trace and len(setups) < most - 1 and (
                len(setups) < fewest - 1 or sum(raw_setups) < SETUP_BUDGET_S):
            raw, scaled, _ = _spawn(args, deadline, setup_only=True)
            raw_setups.append(raw)
            setups.append(scaled)
        raw, scaled, result = _spawn(args, deadline, setup_only=False)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raw_setups.append(raw)
    setups.append(scaled)

    print(f"workload {args.workload}, seed {args.seed}, closed loop with one "
          f"caller; instances: {'; '.join(result['instances'])}")
    if args.trace:
        metrics = _per_layer(result)
    else:
        metrics = _end_to_end(setups, raw_setups, result)
    problems = result["wrong"] + result.get("trace_problems", [])
    print(f"fail_ratio       {result['failed'] / result['attempted']:.6g}  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
